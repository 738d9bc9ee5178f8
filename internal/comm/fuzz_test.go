package comm

// Fuzz tests for Recv matching with AnySource/AnyTag wildcards against
// interleaved tagged sends. Two invariants must hold for every schedule of
// sends and every receive pattern:
//
//   - no message loss: every sent message is received exactly once and the
//     mailbox is empty afterwards;
//   - non-overtaking: within one (source, pattern) class, messages are
//     received in send order.
//
// The seed corpus runs as an ordinary unit test; `go test -fuzz=FuzzRecv`
// explores further schedules.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// fuzzMsg is one sent message: k is its per-source send index.
type fuzzMsg struct{ src, tag, k int }

func FuzzRecvMatching(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0))
	f.Add(int64(2), uint8(5), uint8(1))
	f.Add(int64(3), uint8(31), uint8(2))
	f.Add(int64(99), uint8(1), uint8(0))
	f.Add(int64(1234), uint8(25), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nMsgs, mode uint8) {
		const P = 3 // rank 0 receives, ranks 1..2 send
		perSrc := int(nMsgs%32) + 1
		// Tag schedule is derived from the seed alone, so receiver and
		// senders agree on it without communication.
		tagOf := func(src, k int) int {
			return int(mix64(uint64(seed)^uint64(src*1000+k)) % 4)
		}
		err := Run(P, func(c *Comm) error {
			if c.Rank() != 0 {
				for k := 0; k < perSrc; k++ {
					Send(c, 0, tagOf(c.Rank(), k), []int{c.Rank(), tagOf(c.Rank(), k), k})
				}
				return nil
			}
			rng := rand.New(rand.NewSource(seed))
			total := perSrc * (P - 1)
			lastK := make(map[[2]int]int) // (src, class-discriminator) -> last k
			seen := make(map[fuzzMsg]bool)
			check := func(classSrc, classTag int) error {
				src, tag, p := RecvMsg[int](c, classSrc, classTag)
				got := fuzzMsg{src: p[0], tag: p[1], k: p[2]}
				if src != got.src || tag != got.tag {
					return fmt.Errorf("envelope (%d,%d) disagrees with payload %v", src, tag, p)
				}
				if classSrc != AnySource && got.src != classSrc {
					return fmt.Errorf("asked for src %d, got %d", classSrc, got.src)
				}
				if classTag != AnyTag && got.tag != classTag {
					return fmt.Errorf("asked for tag %d, got %d", classTag, got.tag)
				}
				if seen[got] {
					return fmt.Errorf("message %v received twice", got)
				}
				seen[got] = true
				// Non-overtaking within the (source, pattern) class.
				cls := [2]int{got.src, classTag}
				if prev, ok := lastK[cls]; ok && got.k <= prev {
					return fmt.Errorf("overtaking in class %v: k=%d after k=%d", cls, got.k, prev)
				}
				lastK[cls] = got.k
				return nil
			}
			switch mode % 3 {
			case 0: // full wildcard drain
				for i := 0; i < total; i++ {
					if err := check(AnySource, AnyTag); err != nil {
						return err
					}
				}
			case 1: // per-source drain in rng-interleaved order
				left := map[int]int{1: perSrc, 2: perSrc}
				for i := 0; i < total; i++ {
					src := 1 + rng.Intn(P-1)
					for left[src] == 0 {
						src = 1 + rng.Intn(P-1)
					}
					if err := check(src, AnyTag); err != nil {
						return err
					}
					left[src]--
				}
			default: // per-(src,tag) drain in rng-shuffled class order
				type class struct{ src, tag int }
				counts := make(map[class]int)
				var order []class
				for src := 1; src < P; src++ {
					for k := 0; k < perSrc; k++ {
						cl := class{src, tagOf(src, k)}
						if counts[cl] == 0 {
							order = append(order, cl)
						}
						counts[cl]++
					}
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				for _, cl := range order {
					for n := counts[cl]; n > 0; n-- {
						if err := check(cl.src, cl.tag); err != nil {
							return err
						}
					}
				}
			}
			if len(seen) != total {
				return fmt.Errorf("received %d distinct messages, want %d", len(seen), total)
			}
			if c.Probe(AnySource, AnyTag) {
				return fmt.Errorf("mailbox not empty after full drain")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRecvMatchingUnderFaults replays the wildcard-drain invariants with a
// fault plan derived from the fuzz input: loss must stay masked (or surface
// as a typed FaultError), duplicates must be invisible, and per-source order
// must survive delay and reorder.
func FuzzRecvMatchingUnderFaults(f *testing.F) {
	f.Add(int64(7), uint8(9), uint8(40))
	f.Add(int64(11), uint8(17), uint8(200))
	f.Add(int64(5), uint8(30), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, nMsgs, knobs uint8) {
		const P = 3
		perSrc := int(nMsgs%24) + 1
		plan := &FaultPlan{
			Seed:        seed,
			DelayProb:   float64(knobs%4) * 0.15,
			MaxDelay:    3,
			DupProb:     float64((knobs>>2)%4) * 0.12,
			ReorderProb: float64((knobs>>4)%4) * 0.15,
			DropProb:    float64((knobs>>6)%4) * 0.10,
			MaxRetries:  12,
		}
		_, err := RunConfig(P, Config{Faults: plan}, func(c *Comm) error {
			const tag = 3
			if c.Rank() != 0 {
				for k := 0; k < perSrc; k++ {
					Send(c, 0, tag, []int{c.Rank(), k})
				}
				return nil
			}
			lastK := map[int]int{1: -1, 2: -1}
			for i := 0; i < perSrc*(P-1); i++ {
				p := Recv[int](c, AnySource, tag)
				if p[1] != lastK[p[0]]+1 {
					return fmt.Errorf("src %d: got k=%d after k=%d (loss or overtaking)", p[0], p[1], lastK[p[0]])
				}
				lastK[p[0]] = p[1]
			}
			return nil
		})
		if err != nil {
			var fe *FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("untyped failure under faults: %v", err)
			}
		}
	})
}
