package wire

import (
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
		if err := g.UnmarshalBinary(df.MarshalBinary()); err != nil {
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
		buf, err := ack.MarshalBinary()
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
