package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunRankIdentity(t *testing.T) {
	var seen [6]atomic.Bool
	err := Run(6, func(c *Comm) error {
		if c.Size() != 6 {
			return fmt.Errorf("size %d", c.Size())
		}
		if seen[c.Rank()].Swap(true) {
			return fmt.Errorf("rank %d duplicated", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
	if err := Run(2, nil); err == nil {
		t.Fatal("nil body accepted")
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("rank panic")
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v", err)
	}
}

func TestSendRecvPingPong(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, "ping"); err != nil {
				return err
			}
			got, src, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if got != "pong" || src != 1 {
				return fmt.Errorf("got %v from %d", got, src)
			}
			return nil
		}
		got, _, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if got != "ping" {
			return fmt.Errorf("got %v", got)
		}
		return c.Send(0, 8, "pong")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatchingOutOfOrder(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 1 first, then tag 2; receiver asks for 2 first.
			if err := c.Send(1, 1, "first"); err != nil {
				return err
			}
			return c.Send(1, 2, "second")
		}
		got2, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		got1, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if got2 != "second" || got1 != "first" {
			return fmt.Errorf("tag matching broken: %v / %v", got2, got1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				got, src, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				if got != fmt.Sprintf("hello from %d", src) {
					return fmt.Errorf("payload %v from %d", got, src)
				}
				seen[src] = true
			}
			if len(seen) != 2 {
				return fmt.Errorf("sources %v", seen)
			}
			return nil
		}
		return c.Send(0, c.Rank(), fmt.Sprintf("hello from %d", c.Rank()))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, "x"); err == nil {
			return errors.New("bad destination accepted")
		}
		if err := c.Send(1, -5, "x"); err == nil {
			return errors.New("reserved tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, _, err := c.Recv(9, 0); err == nil {
			return errors.New("bad source accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	// All ranks exchange with their neighbour simultaneously — deadlocks
	// without the concurrent send.
	const n = 4
	err := Run(n, func(c *Comm) error {
		partner := c.Rank() ^ 1
		got, src, err := c.Sendrecv(partner, 3, c.Rank(), partner, 3)
		if err != nil {
			return err
		}
		if src != partner || got != partner {
			return fmt.Errorf("got %v from %d, want %d", got, src, partner)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPhases(t *testing.T) {
	const n = 5
	var phase1 atomic.Int64
	err := Run(n, func(c *Comm) error {
		phase1.Add(1)
		c.Barrier()
		if phase1.Load() != n {
			return fmt.Errorf("rank %d passed barrier with %d arrivals", c.Rank(), phase1.Load())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		v := -1
		if c.Rank() == 2 {
			v = 99
		}
		got, err := Bcast(c, 2, v)
		if err != nil {
			return err
		}
		if got != 99 {
			return fmt.Errorf("rank %d got %d", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastBadRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := Bcast(c, 7, 1); err == nil {
			return errors.New("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		got, err := Reduce(c, 0, c.Rank()+1, func(a, b int) int { return a + b })
		if err != nil {
			return err
		}
		if c.Rank() == 0 && got != n*(n+1)/2 {
			return fmt.Errorf("sum = %d", got)
		}
		if c.Rank() != 0 && got != 0 {
			return fmt.Errorf("non-root got %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceRankOrderDeterministic(t *testing.T) {
	// A non-commutative op (string concat) must fold in rank order.
	err := Run(4, func(c *Comm) error {
		got, err := Reduce(c, 0, fmt.Sprintf("%d", c.Rank()), func(a, b string) string { return a + b })
		if err != nil {
			return err
		}
		if c.Rank() == 0 && got != "0123" {
			return fmt.Errorf("fold = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := Reduce(c, 5, 1, func(a, b int) int { return a + b }); err == nil {
			return errors.New("bad root accepted")
		}
		if c.Rank() == 0 {
			if _, err := Reduce[int](c, 0, 1, nil); err == nil {
				return errors.New("nil op accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		got, err := Allreduce(c, c.Rank(), func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
		if err != nil {
			return err
		}
		if got != n-1 {
			return fmt.Errorf("rank %d allreduce max = %d", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	const n = 4
	data := []int{10, 11, 20, 21, 30, 31, 40, 41}
	err := Run(n, func(c *Comm) error {
		var in []int
		if c.Rank() == 0 {
			in = data
		}
		part, err := Scatter(c, 0, in)
		if err != nil {
			return err
		}
		want := []int{10 * (c.Rank() + 1), 10*(c.Rank()+1) + 1}
		if !reflect.DeepEqual(part, want) {
			return fmt.Errorf("rank %d part = %v, want %v", c.Rank(), part, want)
		}
		// Transform and gather back.
		for i := range part {
			part[i] *= 2
		}
		all, err := Gather(c, 0, part)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := make([]int, len(data))
			for i, v := range data {
				want[i] = v * 2
			}
			if !reflect.DeepEqual(all, want) {
				return fmt.Errorf("gathered %v", all)
			}
		} else if all != nil {
			return fmt.Errorf("non-root gathered %v", all)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterIndivisible(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			// Other ranks must not block forever: root errors before
			// sending, so they would deadlock in a real Recv. To keep
			// the test finite, only root participates.
			return nil
		}
		var in = []int{1, 2, 3, 4}
		if _, err := Scatter(c, 0, in); err == nil {
			return errors.New("indivisible scatter accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Allreduce sum over random per-rank values equals the direct
// sum, for any world size.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(sizeRaw uint8, vals [8]int32) bool {
		size := 1 + int(sizeRaw)%8
		want := 0
		for r := 0; r < size; r++ {
			want += int(vals[r]) % 1000
		}
		ok := true
		err := Run(size, func(c *Comm) error {
			got, err := Allreduce(c, int(vals[c.Rank()])%1000, func(a, b int) int { return a + b })
			if err != nil {
				return err
			}
			if got != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRingPipeline(t *testing.T) {
	// Token passes around the ring once, incremented at each hop.
	const n = 6
	err := Run(n, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		if c.Rank() == 0 {
			if err := c.Send(next, 0, 1); err != nil {
				return err
			}
			got, _, err := c.Recv(prev, 0)
			if err != nil {
				return err
			}
			if got != n {
				return fmt.Errorf("token = %v after ring", got)
			}
			return nil
		}
		got, _, err := c.Recv(prev, 0)
		if err != nil {
			return err
		}
		return c.Send(next, 0, got.(int)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorUnwrap(t *testing.T) {
	base := errors.New("x")
	re := &RankError{Rank: 3, Err: base}
	if re.Error() == "" || !errors.Is(re, base) {
		t.Fatal("RankError plumbing")
	}
}

// TestUndeliveredMessageDoesNotLeakIntoNextRun: a world that exits with
// a message still queued must not hand it to a later world, whose
// inboxes may come from the recycled pool.
func TestUndeliveredMessageDoesNotLeakIntoNextRun(t *testing.T) {
	for i := 0; i < 50; i++ {
		if err := Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 7, "stale")
			}
			return nil // rank 1 never receives
		}); err != nil {
			t.Fatal(err)
		}
		if err := Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 1, i)
			}
			got, src, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if got != i || src != 0 {
				return fmt.Errorf("round %d: received %v from %d", i, got, src)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSendrecvJoinsSendOnError: Sendrecv returns only after its send
// has completed, even when the receive fails, so no send can outlive
// the world and land in a recycled inbox.
func TestSendrecvJoinsSendOnError(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, _, err := c.Sendrecv(1, 0, "x", 9, 0); err == nil {
			return errors.New("bad source accepted")
		}
		if n := len(c.w.inboxes[1]); n != 1 {
			return fmt.Errorf("Sendrecv returned with %d of its 1 message delivered", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRunsStayIsolated runs many worlds at once, some of them
// leaving messages behind, on the shared inbox pool: every world sees
// only its own traffic.
func TestConcurrentRunsStayIsolated(t *testing.T) {
	const worlds, rounds, n = 8, 25, 4
	var wg sync.WaitGroup
	for w := 0; w < worlds; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := w*rounds + r
				err := Run(n, func(c *Comm) error {
					next, prev := (c.Rank()+1)%n, (c.Rank()+n-1)%n
					got, _, err := c.Sendrecv(next, 0, id, prev, AnyTag)
					if err != nil {
						return err
					}
					if got != id {
						return fmt.Errorf("world %d received %v", id, got)
					}
					if r%3 == 0 {
						return c.Send(next, 5, -id) // left undelivered
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
