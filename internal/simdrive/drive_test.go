package simdrive

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pcnn/internal/satisfaction"
	"pcnn/internal/serve"
	"pcnn/internal/workload"
)

// TestDrive pins the event loop's contract on two windows sharing one
// clock: w0 holds a partial batch for 10 ms (a 100 ms deadline less a
// 90 ms full batch), w1 for the 20 ms linger. The log records each arrive
// call and each flush, with how many slots the other window holds at
// that moment.
func TestDrive(t *testing.T) {
	type slot struct {
		win     int
		refused bool
	}
	type arrival struct {
		at    time.Duration
		slots []slot
	}
	on := func(wins ...int) []slot {
		var s []slot
		for _, w := range wins {
			s = append(s, slot{win: w})
		}
		return s
	}
	refused := []slot{{win: 1, refused: true}}
	const ms = time.Millisecond
	for _, tc := range []struct {
		name     string
		arrivals []arrival
		want     []string
	}{
		{"an arrival at the close rides the window",
			[]arrival{{0, on(1)}, {20 * ms, on(1)}},
			[]string{"arrive 0", "arrive 1", "flush w1: 2 legs (w0 holds 0)"}},
		{"an arrival a nanosecond after the close flushes the window first",
			[]arrival{{0, on(1)}, {20*ms + 1, on(1)}},
			[]string{"arrive 0", "flush w1: 1 legs (w0 holds 0)", "arrive 1", "flush w1: 1 legs (w0 holds 0)"}},
		{"windows closing together flush in first-seen order",
			[]arrival{{0, on(1)}, {10 * ms, on(0)}, {21 * ms, on(0)}},
			[]string{"arrive 0", "arrive 1", "flush w1: 1 legs (w0 holds 1)", "flush w0: 1 legs (w1 holds 0)",
				"arrive 2", "flush w0: 1 legs (w1 holds 0)"}},
		{"a refused arrival opens a window",
			[]arrival{{0, refused}, {20 * ms, on(1)}, {20*ms + 1, on(1)}},
			[]string{"arrive 0", "arrive 1", "flush w1: 1 legs (w0 holds 0)", "arrive 2", "flush w1: 1 legs (w0 holds 0)"}},
		{"refused arrivals occupy slots",
			[]arrival{{0, refused}, {1 * ms, refused}, {2 * ms, refused}, {3 * ms, on(1)}, {4 * ms, on(1)}},
			[]string{"arrive 0", "arrive 1", "arrive 2", "arrive 3", "flush w1: 1 legs (w0 holds 0)",
				"arrive 4", "flush w1: 1 legs (w0 holds 0)"}},
		{"a hedged first leg that fills its window flushes before the second leg is added",
			[]arrival{{0, on(1)}, {1 * ms, on(1)}, {2 * ms, on(1)}, {3 * ms, on(1, 0)}},
			[]string{"arrive 0", "arrive 1", "arrive 2", "arrive 3", "flush w1: 4 legs (w0 holds 0)",
				"flush w0: 1 legs (w1 holds 0)"}},
		{"windows still open at the end drain earliest first",
			[]arrival{{0, on(1)}, {5 * ms, on(0)}},
			[]string{"arrive 0", "arrive 1", "flush w0: 1 legs (w1 holds 1)", "flush w1: 1 legs (w0 holds 0)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			clk := workload.NewVirtualClock(workload.Epoch())
			var srvs []*serve.Server
			var wins []*Window
			for _, w := range []struct {
				ex   *stubExec
				task satisfaction.Task
			}{
				{&stubExec{msPerImage: 22.5}, satisfaction.VideoSurveillance(10)},
				{&stubExec{msPerImage: 1}, satisfaction.ImageTagging()},
			} {
				srv, err := serve.NewServer(w.ex, w.task, serve.Config{
					Workers: 1, MaxBatch: testMaxBatch, LingerMS: LingerMS, ManualFlush: true, Clock: clk.Now,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close(ctx)
				srvs = append(srvs, srv)
				wins = append(wins, NewWindow(srv, w.ex, clk, testMaxBatch))
			}

			gaps := make([]time.Duration, len(tc.arrivals))
			var prev time.Duration
			for i, a := range tc.arrivals {
				gaps[i], prev = a.at-prev, a.at
			}
			sched := workload.NewScheduleStream(
				[]workload.Arrivals{workload.NewTraceArrivals(gaps)}, []int{len(gaps)})

			var log []string
			owner := map[Leg]int{}
			k := 0
			arrive := func(at time.Time, _ workload.Event) ([]Slot, error) {
				a := tc.arrivals[k]
				if want := workload.Epoch().Add(a.at); !at.Equal(want) || !clk.Now().Equal(want) {
					t.Errorf("arrival %d at %v on a clock at %v, want both %v", k, at, clk.Now(), want)
				}
				log = append(log, fmt.Sprintf("arrive %d", k))
				k++
				var slots []Slot
				for _, s := range a.slots {
					slot := Slot{Win: wins[s.win]}
					if !s.refused {
						f, err := srvs[s.win].Submit()
						if err != nil {
							return nil, err
						}
						slot.Leg, owner[f] = f, s.win
					}
					slots = append(slots, slot)
				}
				return slots, nil
			}
			flushed := func(outs []Outcome) {
				if len(outs) == 0 {
					t.Fatal("a flush with no accepted legs: the case cannot name its window")
				}
				w := owner[outs[0].Leg]
				log = append(log, fmt.Sprintf("flush w%d: %d legs (w%d holds %d)", w, len(outs), 1-w, wins[1-w].slots))
			}
			if err := Drive(ctx, clk, sched, arrive, flushed); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("event log\n got %q\nwant %q", log, tc.want)
			}
		})
	}
}
