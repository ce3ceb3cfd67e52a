package gpu

import "math"

// Wave replay. A launch whose grid exceeds its window's residency drains
// in nInvocations = ⌈Grid / (TLP·nSM)⌉ dispatch rounds (Eq 8), and every
// full round after the first starts from the same state: the same CTAs,
// all fresh, on the same SMs, behind the same dispatcher cursors. The event
// loop is a pure function of that state, so such a round repeats the
// previous one event for event. waveLog records one round and replays it
// for as many further rounds as the grids can fill.

// waveEvent is one step of the event loop: how long it lasted and the
// operands of the three integrals over it.
type waveEvent struct {
	dt, power, issueRate, memRate float64
	retires                       bool // some launch retired a CTA at this event
}

// integrals holds the event loop's running sums. The loop and the replay
// both advance them through step, so a replayed event adds exactly what a
// simulated one does.
type integrals struct {
	secondsPerCyc, issueCap, dramCapacity float64 // constants of the launch

	now          float64 // cycles
	energyJ      float64
	issueUtilInt float64 // ∫ issue-utilization dt
	dramUtilInt  float64
}

func (s *integrals) step(e *waveEvent) {
	if e.dt > 0 {
		s.energyJ += e.power * e.dt * s.secondsPerCyc
		s.issueUtilInt += e.dt * e.issueRate / s.issueCap
		s.dramUtilInt += e.dt * e.memRate / s.dramCapacity
	}
	s.now += e.dt
}

// waveLogCap bounds a logged wave. A steady wave of uniform CTAs takes
// one event per channel drain — two in every wave the repository's
// simulated pass replays — so a longer wave is simply simulated.
const waveLogCap = 16

// waveLogInts is how many ints a waveLog carves per window.
const waveLogInts = 5

// waveLog holds the last wave boundary and the events since it. A
// boundary is a dispatch onto an empty device — the event before it
// retired every resident CTA — so each window's cursor and level before
// it fix everything the dispatch produces while pending CTAs last: which
// CTAs land on which SMs in which order, all of them fresh. Two
// boundaries whose cursors and levels agree therefore start identical
// waves as long as no dispatch runs out of pending CTAs.
type waveLog struct {
	cursor, level []int // per window, before the boundary's dispatch
	pending       []int // per window, before the boundary's dispatch
	delta         []int // per window: CTAs the logged wave dispatches
	last          []int // per window: the logged event of its last retirement, -1 if none
	events        [waveLogCap]waveEvent
	n             int  // events logged
	valid         bool // a boundary is held and every event since it is logged
}

// newWaveLog carves the log's per-window vectors from ints, which holds
// waveLogInts per window.
func newWaveLog(ints []int) waveLog {
	nL := len(ints) / waveLogInts
	part := func(i int) []int { return ints[i*nL:][:nL] }
	return waveLog{cursor: part(0), level: part(1), pending: part(2), delta: part(3), last: part(4)}
}

// boundary is called before a dispatch onto the empty device. When the
// boundary repeats the held one it reports true, and the log holds the
// wave between the two for replay to use once; otherwise it holds this
// boundary and starts logging. One replay is all a log can give: it stops
// when some launch is left with too few pending CTAs to fill another
// wave, so a later repeat of the same boundary could replay nothing.
func (w *waveLog) boundary(wins []smWindow) bool {
	if w.valid {
		same := true
		for k := range wins {
			same = same && wins[k].cursor == w.cursor[k] && wins[k].level == w.level[k]
		}
		if same {
			for k := range wins {
				w.delta[k] = w.pending[k] - wins[k].pending
			}
			w.valid = false
			return true
		}
	}
	for k := range wins {
		w.cursor[k], w.level[k], w.pending[k], w.last[k] = wins[k].cursor, wins[k].level, wins[k].pending, -1
	}
	w.n, w.valid = 0, true
	return false
}

// retired notes that launch k retires a CTA at the event being built.
func (w *waveLog) retired(e *waveEvent, k int) {
	e.retires = true
	w.last[k] = w.n
}

// record logs one event of the current wave; a wave that outgrows the log
// is dropped.
func (w *waveLog) record(e waveEvent) {
	if !w.valid {
		return
	}
	if w.n == waveLogCap {
		w.valid = false
		return
	}
	w.events[w.n] = e
	w.n++
}

// replay is called after a repeated boundary's dispatch. It runs the
// logged wave again for every further wave the grids fill and takes those
// waves' CTAs off the windows' pending counts. A repeat matches the log
// only if each of its dispatches ends, as the logged ones did, with
// place() finding every SM full; that holds while every launch that
// dispatched delta CTAs in the wave still has more than delta pending
// after it. (With exactly delta left the last dispatch would stop at zero
// pending and skip place()'s final failing call, which moves the
// round-robin cursor. No later dispatch reads that cursor, so results
// would not change, but the strict bound keeps the state after a replay
// the event loop's own.) The state after the replay is the one the
// dispatch left.
func (w *waveLog) replay(acc *integrals, out []Result, wins []smWindow) {
	n := math.MaxInt
	for k, delta := range w.delta {
		if delta > 0 {
			n = min(n, (wins[k].pending-1)/delta)
		}
	}
	if n <= 0 || n == math.MaxInt {
		return
	}
	for k, delta := range w.delta {
		wins[k].pending -= n * delta
	}
	for ; n > 0; n-- {
		for i := range w.events[:w.n] {
			e := &w.events[i]
			acc.step(e)
			if !e.retires {
				continue
			}
			for k, last := range w.last {
				if last == i {
					out[k].Cycles = acc.now
				}
			}
		}
	}
}
