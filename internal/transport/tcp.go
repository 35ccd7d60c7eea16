// Package transport implements the Reno-style mini-TCP used to reproduce
// the TCP-friendliness evaluation of §6.4. The paper runs standard Linux
// TCP over the EMPoWER datapath; what matters for the reported behaviour
// is TCP's reaction to loss, reordering and delay:
//
//   - slow start and AIMD congestion avoidance;
//   - retransmission timeouts with exponential backoff and Karn's rule;
//   - fast retransmit on three duplicate acknowledgements;
//   - cumulative acknowledgements with out-of-order buffering at the
//     receiver.
//
// Segments travel as opaque payloads over an EMPoWER flow (node.Flow);
// packets pushed above the congestion-control allocation are dropped at
// the source (ErrOverRate), which TCP perceives as congestion — exactly
// the §6.4 interaction. Acknowledgements ride a reverse flow over the
// best single path.
package transport

import (
	"repro/internal/sim"
)

// Segment is the metadata attached to a data packet carrying TCP payload.
type Segment struct {
	Seq int64 // first payload byte
	Len int   // payload bytes
}

// Ack is the metadata of a TCP acknowledgement.
type Ack struct {
	// CumAck is the next expected byte (cumulative acknowledgement).
	CumAck int64
}

// The mini-TCP sender's constants.
const (
	// mssBytes is the maximum segment size.
	mssBytes = 1460
	// initCwndSegments is the initial window.
	initCwndSegments = 2
	// rtoMin is the minimum retransmission timeout in seconds (Linux's
	// value).
	rtoMin = 0.2
	// maxCwndSegments caps the window.
	maxCwndSegments = 512
)

// SendFunc pushes one segment toward the receiver; it returns an error
// when the packet was dropped at the source (rate shaping or inactive
// flow). The segment is then simply lost from TCP's point of view.
type SendFunc func(seg Segment) error

// Sender is the TCP sender state machine.
type Sender struct {
	engine *sim.Engine
	send   SendFunc

	// totalBytes is the amount of application data to transfer;
	// -1 streams forever.
	totalBytes int64

	sndUna         int64   // oldest unacknowledged byte
	sndNxt         int64   // next byte to send
	cwnd           float64 // congestion window in bytes
	ssthresh       float64
	dupAcks        int
	inFastRecovery bool

	// RTT estimation (RFC 6298).
	srtt, rttvar, rto float64
	hasRTT            bool
	// sendTimes maps segment start byte to transmit time for RTT samples
	// (Karn's rule: retransmitted segments are not sampled).
	sendTimes map[int64]float64
	retxSeqs  map[int64]bool

	rtoTimer sim.TimerRef
	done     bool

	// Stats.
	Retransmits int
	Timeouts    int
}

// NewSender creates a sender transferring totalBytes (-1 = unbounded)
// using send to emit segments.
func NewSender(engine *sim.Engine, totalBytes int64, send SendFunc) *Sender {
	s := &Sender{
		engine:     engine,
		send:       send,
		totalBytes: totalBytes,
		cwnd:       initCwndSegments * mssBytes,
		ssthresh:   1e12,
		rto:        1.0,
		sendTimes:  map[int64]float64{},
		retxSeqs:   map[int64]bool{},
	}
	return s
}

// Start begins transmission.
func (s *Sender) Start() { s.pump() }

// pump sends as many segments as the window allows.
func (s *Sender) pump() {
	if s.done {
		return
	}
	mss := int64(mssBytes)
	for {
		inflight := s.sndNxt - s.sndUna
		if float64(inflight)+float64(mss) > s.cwnd+1e-9 {
			break
		}
		if s.totalBytes >= 0 && s.sndNxt >= s.totalBytes {
			break
		}
		segLen := mss
		if s.totalBytes >= 0 && s.sndNxt+segLen > s.totalBytes {
			segLen = s.totalBytes - s.sndNxt
		}
		if segLen <= 0 {
			break
		}
		seq := s.sndNxt
		s.sndNxt += segLen
		s.transmit(seq, int(segLen), false)
	}
	s.armRTO()
}

func (s *Sender) transmit(seq int64, length int, isRetx bool) {
	if isRetx {
		s.Retransmits++
		s.retxSeqs[seq] = true
	} else if !s.retxSeqs[seq] {
		s.sendTimes[seq] = s.engine.Now()
	}
	// A send error means the packet was dropped at the source; TCP just
	// waits for its loss signals.
	_ = s.send(Segment{Seq: seq, Len: length})
}

func (s *Sender) armRTO() {
	s.rtoTimer.Cancel()
	s.rtoTimer = sim.TimerRef{}
	if s.sndUna == s.sndNxt || s.done {
		return // nothing in flight
	}
	s.rtoTimer = s.engine.Schedule(s.rto, s.onTimeout)
}

func (s *Sender) onTimeout() {
	if s.done || s.sndUna == s.sndNxt {
		return
	}
	s.Timeouts++
	// RFC 5681: collapse to one segment, back off the timer.
	s.ssthresh = maxf(float64(s.sndNxt-s.sndUna)/2, 2*mssBytes)
	s.cwnd = mssBytes
	s.rto = minf(s.rto*2, 60)
	s.dupAcks = 0
	s.inFastRecovery = false
	// Go-back-N from the hole.
	s.sndNxt = s.sndUna
	s.pump()
}

// OnAck processes a cumulative acknowledgement.
func (s *Sender) OnAck(a Ack) {
	if s.done {
		return
	}
	now := s.engine.Now()
	switch {
	case a.CumAck > s.sndUna:
		// New data acknowledged.
		if t, ok := s.sendTimes[s.sndUna]; ok && !s.retxSeqs[s.sndUna] {
			s.rttSample(now - t)
		}
		for seq := range s.sendTimes {
			if seq < a.CumAck {
				delete(s.sendTimes, seq)
			}
		}
		for seq := range s.retxSeqs {
			if seq < a.CumAck {
				delete(s.retxSeqs, seq)
			}
		}
		acked := a.CumAck - s.sndUna
		s.sndUna = a.CumAck
		s.dupAcks = 0
		mss := float64(mssBytes)
		if s.inFastRecovery {
			// Exit fast recovery: deflate to ssthresh.
			s.cwnd = s.ssthresh
			s.inFastRecovery = false
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(acked) // slow start
		} else {
			s.cwnd += mss * mss / s.cwnd // congestion avoidance
		}
		if s.cwnd > maxCwndSegments*mss {
			s.cwnd = maxCwndSegments * mss
		}
		if s.totalBytes >= 0 && s.sndUna >= s.totalBytes {
			s.done = true
			s.rtoTimer.Cancel()
			return
		}
		s.armRTO()
		s.pump()
	case a.CumAck == s.sndUna && s.sndNxt > s.sndUna:
		s.dupAcks++
		mss := float64(mssBytes)
		if s.inFastRecovery {
			s.cwnd += mss // window inflation per extra dupack
			s.pump()
		} else if s.dupAcks >= 3 {
			// Fast retransmit.
			s.ssthresh = maxf(float64(s.sndNxt-s.sndUna)/2, 2*mss)
			s.cwnd = s.ssthresh + 3*mss
			s.inFastRecovery = true
			s.transmit(s.sndUna, mssBytes, true)
			s.armRTO()
		}
	}
}

// rttSample updates SRTT/RTTVAR/RTO per RFC 6298.
func (s *Sender) rttSample(r float64) {
	if r <= 0 {
		return
	}
	if !s.hasRTT {
		s.srtt = r
		s.rttvar = r / 2
		s.hasRTT = true
	} else {
		const alpha, beta = 0.125, 0.25
		s.rttvar = (1-beta)*s.rttvar + beta*absf(s.srtt-r)
		s.srtt = (1-alpha)*s.srtt + alpha*r
	}
	s.rto = maxf(s.srtt+4*s.rttvar, rtoMin)
}

// AckFunc emits an acknowledgement toward the sender.
type AckFunc func(a Ack) error

// Receiver is the TCP receive side: it buffers out-of-order segments and
// emits cumulative acks.
type Receiver struct {
	rcvNxt int64
	buf    map[int64]int // seq -> len
	ack    AckFunc
}

// NewReceiver creates a receiver emitting acks through ack.
func NewReceiver(ack AckFunc) *Receiver {
	return &Receiver{buf: map[int64]int{}, ack: ack}
}

// OnSegment ingests a data segment (possibly out of order or duplicate).
func (r *Receiver) OnSegment(seg Segment) {
	if seg.Seq+int64(seg.Len) <= r.rcvNxt {
		// Full duplicate: re-ack.
		_ = r.ack(Ack{CumAck: r.rcvNxt})
		return
	}
	if seg.Seq > r.rcvNxt {
		if _, dup := r.buf[seg.Seq]; !dup {
			r.buf[seg.Seq] = seg.Len
		}
		_ = r.ack(Ack{CumAck: r.rcvNxt}) // duplicate ack signalling the hole
		return
	}
	// In-order (or overlapping) segment: advance.
	adv := seg.Seq + int64(seg.Len) - r.rcvNxt
	r.rcvNxt += adv
	// Drain the buffer.
	for {
		l, ok := r.buf[r.rcvNxt]
		if !ok {
			break
		}
		delete(r.buf, r.rcvNxt)
		r.rcvNxt += int64(l)
	}
	_ = r.ack(Ack{CumAck: r.rcvNxt})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func absf(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}
