package wire

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{QR: 1.5, Seq: 123456}
	if err := h.SetRoute([]InterfaceID{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	buf := h.MarshalBinary()
	if len(buf) != HeaderSize {
		t.Fatalf("header size %d, want %d", len(buf), HeaderSize)
	}
	var g Header
	if err := g.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if g.Seq != h.Seq || g.Route != h.Route {
		t.Errorf("round trip mismatch: %+v vs %+v", g, h)
	}
	if math.Abs(g.QR-h.QR) > 1.0/65536 {
		t.Errorf("QR %v vs %v", g.QR, h.QR)
	}
}

func TestHeaderRouteLen(t *testing.T) {
	var h Header
	if h.RouteLen() != 0 {
		t.Error("empty route len != 0")
	}
	h.SetRoute([]InterfaceID{1, 2})
	if h.RouteLen() != 2 {
		t.Errorf("RouteLen = %d, want 2", h.RouteLen())
	}
	// SetRoute clears old entries.
	h.SetRoute([]InterfaceID{9})
	if h.RouteLen() != 1 {
		t.Errorf("RouteLen after reset = %d, want 1", h.RouteLen())
	}
}

func TestHeaderRouteTooLong(t *testing.T) {
	var h Header
	ids := make([]InterfaceID, 7)
	for i := range ids {
		ids[i] = InterfaceID(i + 1)
	}
	if err := h.SetRoute(ids); err != ErrRouteTooLong {
		t.Errorf("err = %v, want ErrRouteTooLong", err)
	}
}

func TestHeaderShortBuffer(t *testing.T) {
	var h Header
	if err := h.UnmarshalBinary(make([]byte, 10)); err != ErrShort {
		t.Errorf("err = %v, want ErrShort", err)
	}
}

func TestAddQR(t *testing.T) {
	var h Header
	h.AddQR(0.5)
	h.AddQR(0.25)
	h.AddQR(-3) // ignored
	if math.Abs(h.QR-0.75) > 1e-12 {
		t.Errorf("QR = %v, want 0.75", h.QR)
	}
}

func TestFixedPointSaturation(t *testing.T) {
	h := Header{QR: 1e9} // beyond 16.16 range
	var g Header
	g.UnmarshalBinary(h.MarshalBinary())
	if g.QR < 65000 {
		t.Errorf("saturated QR = %v, want near max", g.QR)
	}
	// NaN encodes as 0.
	h = Header{QR: math.NaN()}
	g = Header{}
	g.UnmarshalBinary(h.MarshalBinary())
	if g.QR != 0 {
		t.Errorf("NaN QR decoded to %v, want 0", g.QR)
	}
}

func TestHeaderQRPropertyRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		v := float64(raw) / 65536 // representable range
		h := Header{QR: v}
		var g Header
		g.UnmarshalBinary(h.MarshalBinary())
		return math.Abs(g.QR-v) <= 1.0/65536
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashInterface(t *testing.T) {
	seen := map[InterfaceID]bool{}
	collisions := 0
	for n := 0; n < 50; n++ {
		for _, tech := range []graph.Tech{graph.TechPLC, graph.TechWiFi, graph.TechWiFi2} {
			id := HashInterface(graph.NodeID(n), tech)
			if id == 0 {
				t.Fatal("interface ID must be nonzero")
			}
			if seen[id] {
				collisions++
			}
			seen[id] = true
		}
	}
	// 150 IDs in a 16-bit space: a couple of collisions are tolerable,
	// many are not.
	if collisions > 2 {
		t.Errorf("%d hash collisions across 150 interfaces", collisions)
	}
	// Deterministic.
	if HashInterface(3, graph.TechWiFi) != HashInterface(3, graph.TechWiFi) {
		t.Error("hash not deterministic")
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	f := DataFrame{
		Src: 4, Dst: 17, FlowID: 3, RouteIdx: 1, Hop: 2,
		SentAt: 12.345, PayloadLen: 1400,
	}
	f.Header.Seq = 999
	f.Header.SetRoute([]InterfaceID{7, 8})
	f.Header.QR = 2.5

	buf := f.MarshalBinary()
	var g DataFrame
	if err := g.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if g.Src != f.Src || g.Dst != f.Dst || g.FlowID != f.FlowID ||
		g.RouteIdx != f.RouteIdx || g.Hop != f.Hop || g.PayloadLen != f.PayloadLen {
		t.Errorf("round trip mismatch: %+v vs %+v", g, f)
	}
	if g.SentAt != f.SentAt {
		t.Errorf("SentAt %v vs %v", g.SentAt, f.SentAt)
	}
	if g.Header.Seq != 999 || g.Header.RouteLen() != 2 {
		t.Errorf("header mismatch: %+v", g.Header)
	}
	if f.WireLen() != len(buf)+1400 {
		t.Errorf("WireLen = %d", f.WireLen())
	}
}

func TestDataFrameErrors(t *testing.T) {
	var g DataFrame
	if err := g.UnmarshalBinary(nil); err != ErrShort {
		t.Error("want ErrShort")
	}
	buf := make([]byte, 64)
	buf[0] = byte(TypeAck)
	if err := g.UnmarshalBinary(buf); err != ErrBadType {
		t.Error("want ErrBadType")
	}
}

func TestAckFrameRoundTrip(t *testing.T) {
	f := AckFrame{
		Src: 1, Dst: 13, FlowID: 2, SentAt: 99.5,
		Routes: []RouteAck{
			{RouteIdx: 0, QR: 0.75, MaxSeq: 100, Delivered: 50000},
			{RouteIdx: 1, QR: 1.25, MaxSeq: 90, Delivered: 25000},
		},
	}
	buf, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != f.WireLen() {
		t.Errorf("encoded %d bytes, WireLen says %d", len(buf), f.WireLen())
	}
	var g AckFrame
	if err := g.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if g.Src != f.Src || g.Dst != f.Dst || g.FlowID != f.FlowID || g.SentAt != f.SentAt {
		t.Errorf("fixed fields mismatch: %+v", g)
	}
	if len(g.Routes) != 2 {
		t.Fatalf("routes = %d, want 2", len(g.Routes))
	}
	for i := range f.Routes {
		if g.Routes[i].MaxSeq != f.Routes[i].MaxSeq ||
			g.Routes[i].Delivered != f.Routes[i].Delivered ||
			g.Routes[i].RouteIdx != f.Routes[i].RouteIdx {
			t.Errorf("route %d mismatch: %+v vs %+v", i, g.Routes[i], f.Routes[i])
		}
		if math.Abs(g.Routes[i].QR-f.Routes[i].QR) > 1.0/65536 {
			t.Errorf("route %d QR %v vs %v", i, g.Routes[i].QR, f.Routes[i].QR)
		}
	}
}

func TestAckFrameTruncatedRoutes(t *testing.T) {
	f := AckFrame{Routes: []RouteAck{{}, {}}}
	buf, _ := f.MarshalBinary()
	var g AckFrame
	if err := g.UnmarshalBinary(buf[:len(buf)-4]); err != ErrShort {
		t.Errorf("err = %v, want ErrShort", err)
	}
}

func TestPriceFrameRoundTrip(t *testing.T) {
	f := PriceFrame{Origin: 9, Tech: graph.TechPLC, Airtime: 0.42, GammaSum: 3.5, TCPPresent: true}
	buf := f.MarshalBinary()
	if len(buf) != f.WireLen() {
		t.Errorf("encoded %d, WireLen %d", len(buf), f.WireLen())
	}
	var g PriceFrame
	if err := g.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if g.Origin != 9 || g.Tech != graph.TechPLC || !g.TCPPresent {
		t.Errorf("mismatch: %+v", g)
	}
	if math.Abs(g.Airtime-0.42) > 1.0/65536 || math.Abs(g.GammaSum-3.5) > 1.0/65536 {
		t.Errorf("values: %+v", g)
	}
}

func TestFrameTypeString(t *testing.T) {
	if TypeData.String() != "data" || TypeAck.String() != "ack" || TypePrice.String() != "price" {
		t.Error("FrameType strings wrong")
	}
	if FrameType(9).String() == "" {
		t.Error("unknown type string empty")
	}
}
