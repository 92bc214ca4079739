package mpi

import (
	"fmt"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
			return nil
		}
		msg := c.Recv(0, 7)
		if string(msg.Data) != "hello" || msg.Src != 0 || msg.Tag != 7 {
			return fmt.Errorf("bad message %+v", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
			c.Send(1, 3, []byte("third"))
			return nil
		}
		// Receive in reverse tag order; the unexpected queue must buffer.
		if got := string(c.Recv(0, 3).Data); got != "third" {
			return fmt.Errorf("tag 3 = %q", got)
		}
		if got := string(c.Recv(0, 1).Data); got != "first" {
			return fmt.Errorf("tag 1 = %q", got)
		}
		if got := string(c.Recv(0, 2).Data); got != "second" {
			return fmt.Errorf("tag 2 = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSameTagFIFOOrder(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if got := c.Recv(0, 5).Data[0]; got != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	w := NewWorld(2)
	ready, sent := make(chan struct{}), make(chan struct{})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if _, ok := c.TryRecv(1, 9); ok {
				return fmt.Errorf("TryRecv matched before send")
			}
			close(ready) // let rank 1 send
			<-sent
			msg, ok := c.TryRecv(1, 9)
			if !ok || string(msg.Data) != "x" {
				return fmt.Errorf("TryRecv after send: ok=%v", ok)
			}
			return nil
		}
		<-ready
		c.Send(0, 9, []byte("x"))
		close(sent)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecvBuffersMismatches(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, 4, []byte("tag4"))
			c.Send(0, 6, []byte("tag6"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Single-threaded follow-up on rank 0's endpoint.
	c := w.Comm(0)
	if _, ok := c.TryRecv(1, 5); ok {
		t.Fatal("matched nonexistent tag")
	}
	if msg, ok := c.TryRecv(1, 6); !ok || string(msg.Data) != "tag6" {
		t.Fatal("tag 6 not matched after buffering")
	}
	if msg, ok := c.TryRecv(1, 4); !ok || string(msg.Data) != "tag4" {
		t.Fatal("tag 4 lost from unexpected queue")
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidRanksPanic(t *testing.T) {
	w := NewWorld(2)
	for _, fn := range []func(){
		func() { w.Comm(2) },
		func() { w.Comm(-1) },
		func() { w.Comm(0).Send(5, 0, nil) },
		func() { NewWorld(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
