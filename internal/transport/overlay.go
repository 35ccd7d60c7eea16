package transport

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/routing"
)

// Connection couples a mini-TCP sender/receiver pair with two EMPoWER
// flows: a forward flow carrying data segments over the given routes and
// a reverse flow carrying acknowledgements over the best single path
// ("TCP acks are always sent on the best reversed route", §6.4).
type Connection struct {
	Sender   *Sender
	Receiver *Receiver
	Forward  *node.Flow
	Reverse  *node.Flow

	// FinishedAt is the virtual completion time of a bounded transfer
	// (< 0 while unfinished).
	FinishedAt float64
}

// Dial establishes a TCP connection from src to dst over the emulation,
// transferring totalBytes (-1 = unbounded) on the supplied routes,
// starting at virtual time 0.
func Dial(em *node.Emulation, src, dst graph.NodeID, routes []graph.Path, totalBytes int64) (*Connection, error) {
	fwd, err := em.AddFlow(node.FlowSpec{
		Src: src, Dst: dst, Routes: routes, Kind: node.TrafficExternal, TCP: true,
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("transport: forward flow: %w", err)
	}
	back := routing.SinglePath(em.Net, dst, src, routing.DefaultConfig())
	if back == nil {
		return nil, fmt.Errorf("transport: no reverse path %d -> %d", dst, src)
	}
	rev, err := em.AddFlow(node.FlowSpec{
		Src: dst, Dst: src, Routes: []graph.Path{back}, Kind: node.TrafficExternal, TCP: true,
	}, 0)
	if err != nil {
		return nil, fmt.Errorf("transport: reverse flow: %w", err)
	}

	conn := &Connection{Forward: fwd, Reverse: rev, FinishedAt: -1}

	// Both flows validated, so src and dst share one interference domain:
	// the connection's timers ride that domain's engine.
	engine := em.Domain(em.NodeDomain(src)).Engine
	conn.Sender = NewSender(engine, totalBytes, func(seg Segment) error {
		return fwd.Push(seg.Len, seg)
	})
	conn.Sender.OnDone(func(at float64) { conn.FinishedAt = at })

	const tcpAckBytes = 40
	conn.Receiver = NewReceiver(func(a Ack) error {
		return rev.Push(tcpAckBytes, a)
	})

	// Wire the EMPoWER sinks to the TCP state machines. The sinks deliver
	// payloads in order by layer-2.5 sequence (with losses skipped), so
	// TCP sees ordinary gaps.
	em.Agent(dst).SinkFor(src, fwd.ID).OnDeliver = func(_ uint32, _ int, meta interface{}) {
		if seg, ok := meta.(Segment); ok {
			conn.Receiver.OnSegment(seg)
		}
	}
	em.Agent(src).SinkFor(dst, rev.ID).OnDeliver = func(_ uint32, _ int, meta interface{}) {
		if a, ok := meta.(Ack); ok {
			conn.Sender.OnAck(a)
		}
	}

	engine.At(0, func() { conn.Sender.Start() })
	return conn, nil
}
