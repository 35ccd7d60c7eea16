package wire

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestDecodersNeverPanicOnRandomBytes feeds random buffers of assorted
// sizes to every decoder: they must return errors or valid frames, never
// panic or read out of bounds.
func TestDecodersNeverPanicOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(96)
		buf := make([]byte, n)
		rng.Read(buf)
		var h Header
		_ = h.UnmarshalBinary(buf)
		var d DataFrame
		_ = d.UnmarshalBinary(buf)
		var a AckFrame
		_ = a.UnmarshalBinary(buf)
		var p PriceFrame
		_ = p.UnmarshalBinary(buf)
	}
}

// TestDataFramePropertyRoundTrip round-trips random frames.
func TestDataFramePropertyRoundTrip(t *testing.T) {
	f := func(src, dst, flow uint16, ri, hop uint8, seq uint32, pl uint16) bool {
		df := DataFrame{
			Src: graph.NodeID(src), Dst: graph.NodeID(dst), FlowID: flow,
			RouteIdx: ri, Hop: hop, PayloadLen: pl,
		}
		df.Header.Seq = seq
		var g DataFrame
		if err := g.UnmarshalBinary(df.AppendBinary(nil)); err != nil {
			return false
		}
		return g.Src == df.Src && g.Dst == df.Dst && g.FlowID == flow &&
			g.RouteIdx == ri && g.Hop == hop && g.Header.Seq == seq && g.PayloadLen == pl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAckFramePropertyRoundTrip round-trips random acks.
func TestAckFramePropertyRoundTrip(t *testing.T) {
	f := func(src, dst, flow uint16, n uint8, seqBase uint32) bool {
		routes := int(n % 8)
		ack := AckFrame{Src: graph.NodeID(src), Dst: graph.NodeID(dst), FlowID: flow}
		for i := 0; i < routes; i++ {
			ack.Routes = append(ack.Routes, RouteAck{
				RouteIdx: uint8(i), MaxSeq: seqBase + uint32(i), Delivered: uint32(i) * 100,
			})
		}
		buf, err := ack.AppendBinary(nil)
		if err != nil {
			return false
		}
		var g AckFrame
		if err := g.UnmarshalBinary(buf); err != nil {
			return false
		}
		if len(g.Routes) != routes {
			return false
		}
		for i := range g.Routes {
			if g.Routes[i].MaxSeq != ack.Routes[i].MaxSeq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzFrameRoundTrip decodes arbitrary bytes as each of the four frame
// types. No decoder panics; a frame that decodes re-encodes with
// AppendBinary to bytes that decode to the same frame; and an ack's
// encoding is exactly WireLen() bytes, the size that sets its airtime.
func FuzzFrameRoundTrip(f *testing.F) {
	h := Header{QR: 3.75, Seq: 99}
	h.SetRoute([]InterfaceID{7, 8, 9})
	ack := AckFrame{Src: 2, Dst: 11, FlowID: 4, SentAt: 2.25, Routes: []RouteAck{{RouteIdx: 1, QR: 1.25, MaxSeq: 7, Delivered: 2800}}}
	ackBuf, _ := ack.AppendBinary(nil)
	f.Add(h.AppendBinary(nil))
	f.Add((&DataFrame{Header: h, Src: 2, Dst: 11, FlowID: 4, RouteIdx: 1, Hop: 2, SentAt: 1.5, PayloadLen: 1400}).AppendBinary(nil))
	f.Add(ackBuf)
	f.Add((&PriceFrame{Origin: 5, Tech: 1, Airtime: 0.75, GammaSum: 2.5, TCPPresent: true}).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h1, h2 Header
		if h1.UnmarshalBinary(data) == nil {
			roundTrip(t, "header", &h1, &h2, h1.AppendBinary(nil), h2.UnmarshalBinary)
		}
		var d1, d2 DataFrame
		if d1.UnmarshalBinary(data) == nil {
			roundTrip(t, "data frame", &d1, &d2, d1.AppendBinary(nil), d2.UnmarshalBinary)
		}
		var a1, a2 AckFrame
		if a1.UnmarshalBinary(data) == nil {
			buf, err := a1.AppendBinary(nil)
			if err != nil {
				t.Fatalf("decoded ack %+v does not encode: %v", a1, err)
			}
			if len(buf) != a1.WireLen() {
				t.Fatalf("ack encodes to %d bytes, WireLen %d", len(buf), a1.WireLen())
			}
			roundTrip(t, "ack", &a1, &a2, buf, a2.UnmarshalBinary)
		}
		var p1, p2 PriceFrame
		if p1.UnmarshalBinary(data) == nil {
			roundTrip(t, "price frame", &p1, &p2, p1.AppendBinary(nil), p2.UnmarshalBinary)
		}
	})
}

// roundTrip decodes buf, the encoding of first, into second and requires
// the two frames to print the same: %v prints distinct floats distinctly.
func roundTrip(t *testing.T, what string, first, second any, buf []byte, decode func([]byte) error) {
	t.Helper()
	if err := decode(buf); err != nil {
		t.Fatalf("%s %+v: its encoding does not decode: %v", what, first, err)
	}
	if a, b := fmt.Sprintf("%+v", first), fmt.Sprintf("%+v", second); a != b {
		t.Fatalf("%s changed across a round trip:\n%s\n%s", what, a, b)
	}
}
