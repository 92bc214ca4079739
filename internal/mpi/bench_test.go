package mpi

import "testing"

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(2)
	payload := make([]byte, 4096)
	done := make(chan struct{})
	go func() {
		c := w.Comm(1)
		for {
			msg := c.Recv(0, 1)
			if msg.Tag == 1 && len(msg.Data) == 0 {
				close(done)
				return
			}
			c.Send(0, 2, msg.Data)
		}
	}()
	c := w.Comm(0)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(1, 1, payload)
		c.Recv(1, 2)
	}
	b.StopTimer()
	c.Send(1, 1, nil)
	<-done
}
