// Package partcomm implements partitioned point-to-point communication in
// the style of MPI 4.0 (Finepoints): a send buffer divided into
// partitions that individual threads mark ready, each partition eligible
// for transmission as soon as its producer finishes — the "early-bird"
// delivery the paper assesses.
//
// The package has two layers:
//
//   - an executable protocol over internal/mpi (PartitionedSend /
//     PartitionedRecv) exercising real buffers and message matching; and
//   - an analytical overlap simulator (strategies.go) that converts
//     measured thread-arrival times into transmission timelines over a
//     network.Fabric, quantifying the feasibility question of the paper's
//     Figures 1-2 and Section 5.
package partcomm

import (
	"fmt"

	"earlybird/internal/mpi"
)

// tagStride encodes (userTag, partition) into MPI tags; partition counts
// must stay below it.
const tagStride = 1 << 16

// PartitionedSend is the sender side of one partitioned transfer. Each
// partition is sent eagerly when Pready is called — the thread that
// finished its portion of the computation triggers transmission without
// waiting for the other threads (Figure 1 of the paper).
type PartitionedSend struct {
	comm       *mpi.Comm
	dst        int
	tag        int
	buf        []byte
	partitions int
	partSize   int
	ready      []bool
}

// NewSend prepares a partitioned send of buf to dst. The buffer is split
// into partitions contiguous, equal pieces (the paper's model: "each
// thread is assigned an equal, contiguous portion of the communication
// buffer"). len(buf) must be divisible by partitions.
func NewSend(comm *mpi.Comm, dst, tag int, buf []byte, partitions int) (*PartitionedSend, error) {
	if partitions < 1 || partitions >= tagStride {
		return nil, fmt.Errorf("partcomm: invalid partition count %d", partitions)
	}
	if len(buf)%partitions != 0 {
		return nil, fmt.Errorf("partcomm: buffer size %d not divisible by %d partitions", len(buf), partitions)
	}
	return &PartitionedSend{
		comm:       comm,
		dst:        dst,
		tag:        tag,
		buf:        buf,
		partitions: partitions,
		partSize:   len(buf) / partitions,
		ready:      make([]bool, partitions),
	}, nil
}

// Pready marks partition i complete and transmits it. Marking the same
// partition ready twice is an error (as in MPI_Pready).
func (s *PartitionedSend) Pready(i int) error {
	if i < 0 || i >= s.partitions {
		return fmt.Errorf("partcomm: partition %d outside [0, %d)", i, s.partitions)
	}
	if s.ready[i] {
		return fmt.Errorf("partcomm: partition %d already marked ready", i)
	}
	s.ready[i] = true
	chunk := s.buf[i*s.partSize : (i+1)*s.partSize]
	s.comm.Send(s.dst, s.tag*tagStride+i, chunk)
	return nil
}

// PartitionedRecv is the receiver side of one partitioned transfer.
type PartitionedRecv struct {
	comm       *mpi.Comm
	src        int
	tag        int
	buf        []byte
	partitions int
	partSize   int
	arrived    []bool
}

// NewRecv prepares reception of a partitioned transfer of total size
// bytes from src.
func NewRecv(comm *mpi.Comm, src, tag, bytes, partitions int) (*PartitionedRecv, error) {
	if partitions < 1 || partitions >= tagStride {
		return nil, fmt.Errorf("partcomm: invalid partition count %d", partitions)
	}
	if bytes%partitions != 0 {
		return nil, fmt.Errorf("partcomm: size %d not divisible by %d partitions", bytes, partitions)
	}
	return &PartitionedRecv{
		comm:       comm,
		src:        src,
		tag:        tag,
		buf:        make([]byte, bytes),
		partitions: partitions,
		partSize:   bytes / partitions,
		arrived:    make([]bool, partitions),
	}, nil
}

// Parrived polls partition i (MPI_Parrived): it consumes any matching
// message without blocking and reports whether the partition has landed.
func (r *PartitionedRecv) Parrived(i int) (bool, error) {
	if i < 0 || i >= r.partitions {
		return false, fmt.Errorf("partcomm: partition %d outside [0, %d)", i, r.partitions)
	}
	if r.arrived[i] {
		return true, nil
	}
	msg, ok := r.comm.TryRecv(r.src, r.tag*tagStride+i)
	if !ok {
		return false, nil
	}
	r.accept(i, msg)
	return true, nil
}

// Wait blocks until every partition has arrived and returns the
// assembled buffer.
func (r *PartitionedRecv) Wait() []byte {
	for i := 0; i < r.partitions; i++ {
		if r.arrived[i] {
			continue
		}
		msg := r.comm.Recv(r.src, r.tag*tagStride+i)
		r.accept(i, msg)
	}
	return r.buf
}

func (r *PartitionedRecv) accept(i int, msg mpi.Message) {
	copy(r.buf[i*r.partSize:(i+1)*r.partSize], msg.Data)
	r.arrived[i] = true
}

// ArrivedCount returns how many partitions have landed so far.
func (r *PartitionedRecv) ArrivedCount() int {
	n := 0
	for _, a := range r.arrived {
		if a {
			n++
		}
	}
	return n
}
