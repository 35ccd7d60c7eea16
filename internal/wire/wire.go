// Package wire defines the EMPoWER layer-2.5 frame formats of §6.1.
//
// The data header is the paper's fixed 20-byte header:
//
//	bytes  0..11  source route: 6 hops × 2-byte interface identifiers
//	              (short hashes of the interfaces' MAC addresses; 0x0000
//	              marks unused slots)
//	bytes 12..15  q_r, the accumulated route price (unsigned 16.16 fixed
//	              point), updated by every forwarding node
//	bytes 16..19  sequence number, used by the destination to reorder
//	              packets arriving over different routes
//
// Control frames (acknowledgements carrying q_r and per-route receive
// state back to the source every 100 ms, and the per-technology price
// broadcasts of §4.2) are given explicit binary formats here; on the real
// testbed their fields ride in Click packet annotations and Ethernet
// headers, so their exact layout is implementation-defined. A one-byte
// frame-type prefix plays the role of the EtherType demultiplexer.
package wire

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/graph"
)

// Frame format constants.
const (
	// HeaderSize is the EMPoWER data-header size in bytes (paper §6.1).
	HeaderSize = 20
	// MaxHops is the maximum route length the header can carry.
	MaxHops = 6
	// fixedPointOne is the 16.16 fixed-point representation of 1.0 used
	// for the q_r field.
	fixedPointOne = 1 << 16
)

// FrameType discriminates layer-2.5 frames.
type FrameType byte

// Frame types.
const (
	TypeData  FrameType = 1
	TypeAck   FrameType = 2
	TypePrice FrameType = 3
)

// InterfaceID is the 2-byte identifier of a network interface at layer
// 2.5 (a short hash of the interface's MAC address in the paper). The
// zero value marks an unused route slot, so valid IDs are nonzero.
type InterfaceID uint16

// HashInterface derives a stable nonzero InterfaceID for a node's
// interface of the given technology (an FNV-style mix standing in for the
// MAC-address hash).
func HashInterface(node graph.NodeID, tech graph.Tech) InterfaceID {
	h := uint32(2166136261)
	h = (h ^ uint32(node+1)) * 16777619
	h = (h ^ uint32(tech+1)) * 16777619
	id := InterfaceID(h>>16) ^ InterfaceID(h)
	if id == 0 {
		id = 1
	}
	return id
}

// Errors returned by decoders.
var (
	ErrShort        = errors.New("wire: buffer too short")
	ErrBadType      = errors.New("wire: unknown frame type")
	ErrRouteTooLong = errors.New("wire: route exceeds 6 hops")
)

// Header is the 20-byte EMPoWER data header.
type Header struct {
	// Route lists the ingress interface of each hop along the source
	// route; unused slots are zero.
	Route [MaxHops]InterfaceID
	// QR is the accumulated route price q_r (nonnegative; saturates at
	// ~65535 in the 16.16 encoding).
	QR float64
	// Seq is the per-flow-route-set sequence number.
	Seq uint32
}

// RouteLen returns the number of used route slots.
func (h *Header) RouteLen() int {
	n := 0
	for _, r := range h.Route {
		if r != 0 {
			n++
		} else {
			break
		}
	}
	return n
}

// SetRoute fills the route slots from ids. It fails if len(ids) exceeds
// MaxHops — routes longer than 6 hops cannot be represented, which is the
// header's (and the paper's) deliberate limit for local networks.
func (h *Header) SetRoute(ids []InterfaceID) error {
	if len(ids) > MaxHops {
		return ErrRouteTooLong
	}
	h.Route = [MaxHops]InterfaceID{}
	copy(h.Route[:], ids)
	return nil
}

// AddQR accumulates a forwarding node's price contribution
// d_l · Σ_{i∈I_l} γ_i into the QR field (§4.2).
func (h *Header) AddQR(v float64) {
	if v > 0 {
		h.QR += v
	}
}

func encodeFixed(v float64) uint32 {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	f := v * fixedPointOne
	if f >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(f)
}

func decodeFixed(u uint32) float64 { return float64(u) / fixedPointOne }

// zeros backs appendZeros; large enough for any fixed-size frame chunk.
var zeros [64]byte

// appendZeros extends buf by n zero bytes without a temporary slice.
func appendZeros(buf []byte, n int) []byte {
	for n > len(zeros) {
		buf = append(buf, zeros[:]...)
		n -= len(zeros)
	}
	return append(buf, zeros[:n]...)
}

// AppendBinary appends the HeaderSize-byte encoding to buf and returns
// the extended slice. Callers on hot paths pass a retained scratch
// buffer (`buf[:0]`) so encoding allocates nothing once the scratch has
// grown to size.
func (h *Header) AppendBinary(buf []byte) []byte {
	off := len(buf)
	buf = appendZeros(buf, HeaderSize)
	for i, r := range h.Route {
		binary.BigEndian.PutUint16(buf[off+i*2:], uint16(r))
	}
	binary.BigEndian.PutUint32(buf[off+12:], encodeFixed(h.QR))
	binary.BigEndian.PutUint32(buf[off+16:], h.Seq)
	return buf
}

// UnmarshalBinary decodes a header from buf.
func (h *Header) UnmarshalBinary(buf []byte) error {
	if len(buf) < HeaderSize {
		return ErrShort
	}
	for i := range h.Route {
		h.Route[i] = InterfaceID(binary.BigEndian.Uint16(buf[i*2:]))
	}
	h.QR = decodeFixed(binary.BigEndian.Uint32(buf[12:]))
	h.Seq = binary.BigEndian.Uint32(buf[16:])
	return nil
}
