package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
)

// DataFrame is a layer-2.5 data packet: the 20-byte header plus the
// metadata that, on the real testbed, rides in the Ethernet encapsulation
// and kernel timestamps (source/destination node, flow tag, hop cursor,
// send timestamp for delay equalization, payload length).
type DataFrame struct {
	Header   Header
	Src, Dst graph.NodeID
	FlowID   uint16
	// RouteIdx identifies which of the flow's routes this packet rides
	// (destination tracks per-route sequence state with it).
	RouteIdx uint8
	// Hop is the forwarding cursor into Header.Route.
	Hop uint8
	// SentAt is the source timestamp in seconds (for delay equalization).
	SentAt float64
	// PayloadLen is the application payload size in bytes.
	PayloadLen uint16
}

const dataFrameSize = 1 + HeaderSize + 2 + 2 + 2 + 1 + 1 + 8 + 2

// WireLen returns the total frame size in bytes (framing + payload).
func (f *DataFrame) WireLen() int { return dataFrameSize + int(f.PayloadLen) }

// AppendBinary appends the frame encoding (without the simulated payload
// bytes) to buf and returns the extended slice; see Header.AppendBinary
// for the scratch-buffer convention.
func (f *DataFrame) AppendBinary(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, byte(TypeData))
	buf = f.Header.AppendBinary(buf)
	buf = appendZeros(buf, dataFrameSize-1-HeaderSize)
	off := start + 1 + HeaderSize
	binary.BigEndian.PutUint16(buf[off:], uint16(f.Src))
	binary.BigEndian.PutUint16(buf[off+2:], uint16(f.Dst))
	binary.BigEndian.PutUint16(buf[off+4:], f.FlowID)
	buf[off+6] = f.RouteIdx
	buf[off+7] = f.Hop
	binary.BigEndian.PutUint64(buf[off+8:], floatBits(f.SentAt))
	binary.BigEndian.PutUint16(buf[off+16:], f.PayloadLen)
	return buf
}

// MarshalBinary encodes the frame (without the simulated payload bytes).
func (f *DataFrame) MarshalBinary() []byte {
	return f.AppendBinary(make([]byte, 0, dataFrameSize))
}

// UnmarshalBinary decodes a data frame.
func (f *DataFrame) UnmarshalBinary(buf []byte) error {
	if len(buf) < dataFrameSize {
		return ErrShort
	}
	if FrameType(buf[0]) != TypeData {
		return ErrBadType
	}
	if err := f.Header.UnmarshalBinary(buf[1:]); err != nil {
		return err
	}
	off := 1 + HeaderSize
	f.Src = graph.NodeID(binary.BigEndian.Uint16(buf[off:]))
	f.Dst = graph.NodeID(binary.BigEndian.Uint16(buf[off+2:]))
	f.FlowID = binary.BigEndian.Uint16(buf[off+4:])
	f.RouteIdx = buf[off+6]
	f.Hop = buf[off+7]
	f.SentAt = bitsFloat(binary.BigEndian.Uint64(buf[off+8:]))
	f.PayloadLen = binary.BigEndian.Uint16(buf[off+16:])
	return nil
}

// RouteAck carries one route's feedback inside an AckFrame.
type RouteAck struct {
	RouteIdx uint8
	// QR is the accumulated price observed at the destination (§4.2's
	// "the destination can send back q_r to the source").
	QR float64
	// MaxSeq is the highest sequence number received on this route, used
	// by the source for loss detection and rate accounting.
	MaxSeq uint32
	// Delivered counts payload bytes received on this route since the
	// previous acknowledgement.
	Delivered uint32
}

// AckFrame is the per-flow acknowledgement the destination emits every
// 100 ms (at most 10 per second), sent back over the best single path with
// priority.
type AckFrame struct {
	Src, Dst graph.NodeID // Src = flow source (ack receiver)
	FlowID   uint16
	// SentAt timestamps the ack for RTT estimation.
	SentAt float64
	Routes []RouteAck
}

const ackFixedSize = 1 + 2 + 2 + 2 + 8 + 1
const routeAckSize = 1 + 4 + 4 + 4

// WireLen returns the encoded size in bytes.
func (f *AckFrame) WireLen() int { return ackFixedSize + len(f.Routes)*routeAckSize }

// AppendBinary appends the ack encoding to buf and returns the extended
// slice; see Header.AppendBinary for the scratch-buffer convention.
func (f *AckFrame) AppendBinary(buf []byte) ([]byte, error) {
	if len(f.Routes) > 255 {
		return buf, fmt.Errorf("wire: %d route acks exceed 255", len(f.Routes))
	}
	start := len(buf)
	buf = appendZeros(buf, ackFixedSize)
	buf[start] = byte(TypeAck)
	binary.BigEndian.PutUint16(buf[start+1:], uint16(f.Src))
	binary.BigEndian.PutUint16(buf[start+3:], uint16(f.Dst))
	binary.BigEndian.PutUint16(buf[start+5:], f.FlowID)
	binary.BigEndian.PutUint64(buf[start+7:], floatBits(f.SentAt))
	buf[start+15] = byte(len(f.Routes))
	for _, r := range f.Routes {
		off := len(buf)
		buf = appendZeros(buf, routeAckSize)
		buf[off] = r.RouteIdx
		binary.BigEndian.PutUint32(buf[off+1:], encodeFixed(r.QR))
		binary.BigEndian.PutUint32(buf[off+5:], r.MaxSeq)
		binary.BigEndian.PutUint32(buf[off+9:], r.Delivered)
	}
	return buf, nil
}

// MarshalBinary encodes the ack.
func (f *AckFrame) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(make([]byte, 0, f.WireLen()))
}

// UnmarshalBinary decodes an ack.
func (f *AckFrame) UnmarshalBinary(buf []byte) error {
	if len(buf) < ackFixedSize {
		return ErrShort
	}
	if FrameType(buf[0]) != TypeAck {
		return ErrBadType
	}
	f.Src = graph.NodeID(binary.BigEndian.Uint16(buf[1:]))
	f.Dst = graph.NodeID(binary.BigEndian.Uint16(buf[3:]))
	f.FlowID = binary.BigEndian.Uint16(buf[5:])
	f.SentAt = bitsFloat(binary.BigEndian.Uint64(buf[7:]))
	n := int(buf[15])
	if len(buf) < ackFixedSize+n*routeAckSize {
		return ErrShort
	}
	// Reuse the Routes backing array across decodes: steady-state ack
	// processing must not allocate per frame.
	if cap(f.Routes) >= n {
		f.Routes = f.Routes[:n]
	} else {
		f.Routes = make([]RouteAck, n)
	}
	off := ackFixedSize
	for i := range f.Routes {
		f.Routes[i] = RouteAck{
			RouteIdx:  buf[off],
			QR:        decodeFixed(binary.BigEndian.Uint32(buf[off+1:])),
			MaxSeq:    binary.BigEndian.Uint32(buf[off+5:]),
			Delivered: binary.BigEndian.Uint32(buf[off+9:]),
		}
		off += routeAckSize
	}
	return nil
}

// PriceFrame is the periodic per-technology broadcast of §4.2: a node
// advertises, for each technology k it uses, (i) its aggregate airtime
// demand over its egress links of k and (ii) the sum of its dual variables
// γ_l over those links. Overhearing nodes use these to compute y_l for
// their own links (eq. 7) and the Σ_{i∈I_l} γ_i term of the route price
// (eq. 9). The TCPPresent bit piggybacks the §6.4 signal that a TCP flow
// traverses this node's contention domain, asking neighbors to apply the
// larger constraint margin δ.
type PriceFrame struct {
	Origin graph.NodeID
	Tech   graph.Tech
	// Airtime is the node's aggregate airtime demand on this technology
	// (dimensionless, 16.16 fixed point on the wire).
	Airtime float64
	// GammaSum is Σ γ_l over the node's egress links of this technology.
	GammaSum float64
	// TCPPresent piggybacks TCP presence for δ selection (§6.4).
	TCPPresent bool
}

const priceFrameSize = 1 + 2 + 1 + 4 + 4 + 1

// WireLen returns the encoded size in bytes.
func (f *PriceFrame) WireLen() int { return priceFrameSize }

// AppendBinary appends the price-broadcast encoding to buf and returns
// the extended slice; see Header.AppendBinary for the scratch-buffer
// convention.
func (f *PriceFrame) AppendBinary(buf []byte) []byte {
	off := len(buf)
	buf = appendZeros(buf, priceFrameSize)
	buf[off] = byte(TypePrice)
	binary.BigEndian.PutUint16(buf[off+1:], uint16(f.Origin))
	buf[off+3] = byte(f.Tech)
	binary.BigEndian.PutUint32(buf[off+4:], encodeFixed(f.Airtime))
	binary.BigEndian.PutUint32(buf[off+8:], encodeFixed(f.GammaSum))
	if f.TCPPresent {
		buf[off+12] = 1
	}
	return buf
}

// MarshalBinary encodes the price broadcast.
func (f *PriceFrame) MarshalBinary() []byte {
	return f.AppendBinary(make([]byte, 0, priceFrameSize))
}

// UnmarshalBinary decodes a price broadcast.
func (f *PriceFrame) UnmarshalBinary(buf []byte) error {
	if len(buf) < priceFrameSize {
		return ErrShort
	}
	if FrameType(buf[0]) != TypePrice {
		return ErrBadType
	}
	f.Origin = graph.NodeID(binary.BigEndian.Uint16(buf[1:]))
	f.Tech = graph.Tech(buf[3])
	f.Airtime = decodeFixed(binary.BigEndian.Uint32(buf[4:]))
	f.GammaSum = decodeFixed(binary.BigEndian.Uint32(buf[8:]))
	f.TCPPresent = buf[12] == 1
	return nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(u uint64) float64 { return math.Float64frombits(u) }
