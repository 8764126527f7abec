package rdma

import "testing"

// BenchmarkSendRecv measures one two-sided message through the simulated
// fabric, including delivery and completion.
func BenchmarkSendRecv(b *testing.B) {
	f := NewFabric()
	recvCQ := NewCQ()
	a, peer := f.ConnectPair(
		QPConfig{},
		QPConfig{RecvCQ: recvCQ},
	)
	defer a.Close()
	defer peer.Close()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peer.rq.Post(make([]byte, 64), uint64(i))
		if err := a.Send(payload, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, ok := waitAt(recvCQ, uint64(i)); !ok {
			b.Fatal("missing completion")
		}
	}
}

// BenchmarkRDMARead measures a one-sided read (the rendezvous data pull).
func BenchmarkRDMARead(b *testing.B) {
	f := NewFabric()
	src := make([]byte, 4096)
	mr := f.RegisterMemory(src)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Read(dst, mr.RKey, 0, 4096, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCQPush measures completion production and consumption.
func BenchmarkCQPush(b *testing.B) {
	q := NewCQ()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(Completion{WRID: uint64(i)})
		if _, ok := pollAt(q, uint64(i)); !ok {
			b.Fatal("lost completion")
		}
		if i%1024 == 1023 {
			q.Trim(uint64(i))
		}
	}
}
