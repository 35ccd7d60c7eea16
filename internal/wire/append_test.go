package wire

import (
	"bytes"
	"testing"
)

// TestAppendBinaryMatchesMarshal pins AppendBinary after existing bytes
// to the encoding into an empty buffer, for all three frame types plus
// the bare header.
func TestAppendBinaryMatchesMarshal(t *testing.T) {
	h := Header{QR: 3.75, Seq: 99}
	h.SetRoute([]InterfaceID{7, 8, 9})

	df := DataFrame{Header: h, Src: 2, Dst: 11, FlowID: 4, RouteIdx: 1, Hop: 2, SentAt: 1.5, PayloadLen: 1400}
	ack := AckFrame{Src: 2, Dst: 11, FlowID: 4, SentAt: 2.25, Routes: []RouteAck{
		{RouteIdx: 0, QR: 0.5, MaxSeq: 10, Delivered: 4200},
		{RouteIdx: 1, QR: 1.25, MaxSeq: 7, Delivered: 2800},
	}}
	pf := PriceFrame{Origin: 5, Tech: 1, Airtime: 0.75, GammaSum: 2.5, TCPPresent: true}

	prefix := []byte{0xde, 0xad}
	if got := h.AppendBinary(append([]byte(nil), prefix...)); !bytes.Equal(got[2:], h.AppendBinary(nil)) || !bytes.Equal(got[:2], prefix) {
		t.Errorf("Header.AppendBinary = %x", got)
	}
	if got := df.AppendBinary(append([]byte(nil), prefix...)); !bytes.Equal(got[2:], df.AppendBinary(nil)) || !bytes.Equal(got[:2], prefix) {
		t.Errorf("DataFrame.AppendBinary = %x", got)
	}
	want, err := ack.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ack.AppendBinary(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[2:], want) || !bytes.Equal(got[:2], prefix) {
		t.Errorf("AckFrame.AppendBinary = %x, want %x", got[2:], want)
	}
	if got := pf.AppendBinary(append([]byte(nil), prefix...)); !bytes.Equal(got[2:], pf.AppendBinary(nil)) || !bytes.Equal(got[:2], prefix) {
		t.Errorf("PriceFrame.AppendBinary = %x", got)
	}
}

// TestAppendBinaryTooManyRoutes: the 255-route limit errors through
// AppendBinary.
func TestAppendBinaryTooManyRoutes(t *testing.T) {
	f := AckFrame{Routes: make([]RouteAck, 256)}
	if _, err := f.AppendBinary(nil); err == nil {
		t.Error("256 route acks should not encode")
	}
}

// TestAckUnmarshalReusesRoutes: decoding into an AckFrame whose Routes
// slice already has capacity must reuse it (the steady-state ack path is
// allocation-free).
func TestAckUnmarshalReusesRoutes(t *testing.T) {
	src := AckFrame{Src: 1, Dst: 2, FlowID: 3, Routes: []RouteAck{
		{RouteIdx: 0, QR: 1, MaxSeq: 5, Delivered: 100},
		{RouteIdx: 1, QR: 2, MaxSeq: 6, Delivered: 200},
	}}
	buf, err := src.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := AckFrame{Routes: make([]RouteAck, 0, 8)}
	backing := g.Routes[:8]
	if err := g.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if len(g.Routes) != 2 || g.Routes[1].Delivered != 200 {
		t.Fatalf("decoded routes %+v", g.Routes)
	}
	if &g.Routes[0] != &backing[0] {
		t.Error("UnmarshalBinary reallocated Routes despite sufficient capacity")
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := g.UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state ack decode allocates %v per frame, want 0", avg)
	}
}

// TestAppendBinaryScratchReuse: encoding into a warm scratch buffer
// allocates nothing.
func TestAppendBinaryScratchReuse(t *testing.T) {
	df := DataFrame{Src: 1, Dst: 2, FlowID: 3, PayloadLen: 1500}
	df.Header.SetRoute([]InterfaceID{4, 5, 6})
	pf := PriceFrame{Origin: 1, Tech: 2, Airtime: 0.5, GammaSum: 1}
	scratch := make([]byte, 0, 64)
	if avg := testing.AllocsPerRun(100, func() {
		scratch = df.AppendBinary(scratch[:0])
		scratch = pf.AppendBinary(scratch[:0])
	}); avg != 0 {
		t.Errorf("warm-scratch encode allocates %v per run, want 0", avg)
	}
}
