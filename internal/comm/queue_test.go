package comm

import (
	"math/rand"
	"testing"
)

// TestMsgQueueMatchesSlice drives msgQueue with random pushes, removals
// (mostly of the head, as receivers do) and fault-layer inserts, against a
// plain slice as the model: same contents in the same order after every
// step, and a backing array that stays within four times the peak backlog
// (a dead prefix shorter than the live part, times append's doubling) — the
// head index must neither reorder nor leak.
func TestMsgQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q msgQueue
	var model []message
	peak, next := 0, 0
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(model) == 0:
			m := message{Src: next % 5, Tag: next}
			next++
			q.push(m)
			model = append(model, m)
		case r < 8:
			q.remove(0)
			model = model[1:]
		case r < 9:
			i := rng.Intn(len(model))
			q.remove(i)
			model = append(model[:i:i], model[i+1:]...)
		default:
			i := rng.Intn(len(model) + 1)
			m := message{Src: next % 5, Tag: next}
			next++
			q.insert(i, m)
			model = append(model[:i:i], append([]message{m}, model[i:]...)...)
		}
		peak = max(peak, len(model))
		live := q.live()
		if len(live) != len(model) {
			t.Fatalf("step %d: %d live messages, model has %d", step, len(live), len(model))
		}
		for i := range model {
			if live[i].Tag != model[i].Tag {
				t.Fatalf("step %d: live[%d] has tag %d, model has %d", step, i, live[i].Tag, model[i].Tag)
			}
		}
		if c := cap(q.buf); c > 4*peak+8 {
			t.Fatalf("step %d: backing array holds %d messages for a peak backlog of %d", step, c, peak)
		}
	}
	// A drained queue rewinds; a long one-way backlog drains from the head.
	for len(q.live()) > 0 {
		q.remove(0)
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue left head=%d len=%d", q.head, len(q.buf))
	}
}
