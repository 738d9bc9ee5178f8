package comm

// White-box tcp transport tests: failure modes that need a hand inside the
// endpoint, like physically severing a connection mid-session.

import (
	"errors"
	"testing"
	"time"
)

const tagTornProbe = 600 // awaited across the severed connection

// TestTCPTornConnectionFailsTyped cuts the socket between two ranks while
// both are blocked receiving across it. The reader's failure must latch a
// FaultTransport session fault carrying a *TransportError and wake every
// blocked rank — a torn wire is a typed error, never a hang.
func TestTCPTornConnectionFailsTyped(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := RunConfig(2, Config{Transport: "tcp"}, func(c *Comm) error {
			if c.Rank() == 0 {
				c.tr.(*tcpEndpoint).conns[1].nc.Close() // sever the wire
			}
			Recv[byte](c, 1-c.Rank(), tagTornProbe) // can now never be satisfied
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("err = %v, want FaultError", err)
		}
		if fe.Kind != FaultTransport {
			t.Fatalf("fault kind = %v, want transport", fe.Kind)
		}
		var te *TransportError
		if !errors.As(err, &te) {
			t.Fatalf("no TransportError in chain of %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("torn connection stranded the session instead of failing it")
	}
}
