package tcpsim

import (
	"bytes"
	"testing"

	"smt/internal/cost"
	"smt/internal/cpusim"
	"smt/internal/netsim"
	"smt/internal/rpc"
	"smt/internal/sim"
	"smt/internal/wire"
)

type world struct {
	eng  *sim.Engine
	net  *netsim.Network
	a, b *cpusim.Host
}

func newWorld(seed int64) *world {
	eng := sim.NewEngine(seed)
	cm := cost.Default()
	net := netsim.New(eng, cm)
	return &world{
		eng: eng, net: net,
		a: cpusim.NewHost(eng, cm, net, 1, 4, 12),
		b: cpusim.NewHost(eng, cm, net, 2, 4, 12),
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// connect establishes a client→server connection and returns both ends.
func connect(t *testing.T, w *world, cfg Config) (cli, srv *Conn) {
	t.Helper()
	Listen(w.b, 80, cfg, nil, nil, func(c *Conn) { srv = c })
	var established *Conn
	cli = Dial(w.a, 0, cfg, nil, 2, 80, func(c *Conn) { established = c })
	w.eng.RunUntil(1 * sim.Millisecond)
	if srv == nil || established != cli {
		t.Fatal("connection not established")
	}
	return cli, srv
}

func TestConnectAndExchange(t *testing.T) {
	w := newWorld(1)
	cli, srv := connect(t, w, Config{})
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(64)
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("message mismatch")
	}
}

func TestMessageBoundariesPreserved(t *testing.T) {
	w := newWorld(2)
	cli, srv := connect(t, w, Config{})
	var got [][]byte
	srv.OnMessage(func(m []byte) { got = append(got, append([]byte(nil), m...)) })
	msgs := [][]byte{pattern(10), pattern(1000), pattern(3), pattern(20000)}
	w.eng.At(w.eng.Now(), func() {
		for _, m := range msgs {
			cli.SendMessage(m)
		}
	})
	w.eng.Run()
	if len(got) != len(msgs) {
		t.Fatalf("messages = %d, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d mismatch", i)
		}
	}
}

func TestLargeTransfer(t *testing.T) {
	w := newWorld(3)
	cli, srv := connect(t, w, Config{})
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(2_000_000) // exceeds window: needs ack clocking
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("large transfer mismatch (%d bytes)", len(got))
	}
}

func TestEchoRTT(t *testing.T) {
	w := newWorld(4)
	cli, srv := connect(t, w, Config{})
	srv.OnMessage(func(m []byte) { srv.SendMessage(m) })
	var rtt sim.Time
	start := w.eng.Now()
	cli.OnMessage(func(m []byte) { rtt = w.eng.Now() - start })
	w.eng.At(start, func() { cli.SendMessage(pattern(64)) })
	w.eng.Run()
	if rtt == 0 {
		t.Fatal("no echo")
	}
	if rtt < 10*sim.Microsecond || rtt > 60*sim.Microsecond {
		t.Fatalf("TCP 64B RTT = %v, implausible", rtt)
	}
	t.Logf("64B TCP RTT: %v", rtt)
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	w := newWorld(5)
	cli, srv := connect(t, w, Config{})
	w.net.LossProb = 0.03
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(500_000)
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.RunUntil(3 * sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("transfer not recovered under loss")
	}
	if cli.Stats.FastRetx == 0 && cli.Stats.RTORetx == 0 {
		t.Fatal("no retransmissions recorded under loss")
	}
}

func TestRTORecoversTotalLoss(t *testing.T) {
	w := newWorld(6)
	cli, srv := connect(t, w, Config{})
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	w.net.LossProb = 1.0
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(pattern(100)) })
	at := w.eng.Now()
	w.eng.At(at+sim.Time(8*sim.Millisecond), func() { w.net.LossProb = 0 })
	w.eng.RunUntil(at + sim.Time(300*sim.Millisecond))
	if got == nil {
		t.Fatal("RTO did not recover the loss")
	}
	if cli.Stats.RTORetx == 0 {
		t.Fatal("expected RTO retransmission")
	}
}

func TestReorderingHandled(t *testing.T) {
	w := newWorld(7)
	cli, srv := connect(t, w, Config{})
	w.net.ReorderProb = 0.2
	w.net.ReorderDelay = 30 * sim.Microsecond
	var got []byte
	srv.OnMessage(func(m []byte) { got = append([]byte(nil), m...) })
	msg := pattern(300_000)
	w.eng.At(w.eng.Now(), func() { cli.SendMessage(msg) })
	w.eng.RunUntil(2 * sim.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("reordered transfer mismatch")
	}
}

func TestBidirectional(t *testing.T) {
	w := newWorld(8)
	cli, srv := connect(t, w, Config{})
	var fromCli, fromSrv []byte
	srv.OnMessage(func(m []byte) { fromCli = append([]byte(nil), m...) })
	cli.OnMessage(func(m []byte) { fromSrv = append([]byte(nil), m...) })
	w.eng.At(w.eng.Now(), func() {
		cli.SendMessage(pattern(100))
		srv.SendMessage(pattern(200))
	})
	w.eng.Run()
	if len(fromCli) != 100 || len(fromSrv) != 200 {
		t.Fatalf("bidirectional exchange broken: %d/%d", len(fromCli), len(fromSrv))
	}
}

func TestMultipleConnectionsSameServer(t *testing.T) {
	w := newWorld(9)
	var srvConns []*Conn
	Listen(w.b, 80, Config{}, nil, nil, func(c *Conn) {
		c.OnMessage(func(m []byte) { c.SendMessage(m) })
		srvConns = append(srvConns, c)
	})
	const N = 20
	echoed := 0
	for i := 0; i < N; i++ {
		i := i
		Dial(w.a, i%12, Config{}, nil, 2, 80, func(c *Conn) {
			c.OnMessage(func(m []byte) { echoed++ })
			c.SendMessage(pattern(100 + i))
		})
	}
	w.eng.Run()
	if echoed != N || len(srvConns) != N {
		t.Fatalf("echoed=%d conns=%d, want %d", echoed, len(srvConns), N)
	}
}

func TestEmptyMessagePanics(t *testing.T) {
	w := newWorld(10)
	cli, _ := connect(t, w, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("empty message must panic")
		}
	}()
	cli.SendMessage(nil)
}

func TestCloseStopsTraffic(t *testing.T) {
	w := newWorld(11)
	cli, _ := connect(t, w, Config{})
	cli.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("send on closed conn must panic")
		}
	}()
	cli.SendMessage(pattern(10))
}

func TestFramingHelper(t *testing.T) {
	var pool wire.BufPool
	f := framed(&pool, []byte("abc"))
	if len(f) != 7 || f[3] != 3 || !bytes.Equal(f[4:], []byte("abc")) {
		t.Fatalf("framed = %v", f)
	}
	if pool.Outstanding() != 1 {
		t.Fatalf("framed buffer not drawn from the pool: %d outstanding", pool.Outstanding())
	}
}

// TestSendBufferReuseUnderLoss pins SendMessage's copy contract: the
// caller may overwrite its buffer as soon as SendMessage returns, and
// every transmission of the message — retransmissions after loss
// included — carries the bytes as they were at the call. Harnesses that
// encode every request into one reused buffer depend on this. Once all
// data is acknowledged, every message buffer is back in the pool.
func TestSendBufferReuseUnderLoss(t *testing.T) {
	w := newWorld(5)
	cli, srv := connect(t, w, Config{})
	w.net.LossProb = 0.03
	const n = 6
	var delivered, valid int
	srv.OnMessage(func(m []byte) {
		delivered++
		if rpc.BodyValid(m) {
			valid++
		}
	})
	var buf []byte
	w.eng.At(w.eng.Now(), func() {
		for i := 0; i < n; i++ {
			buf = rpc.AppendEncode(buf, uint64(i), 0, 100_000)
			cli.SendMessage(buf)
			for j := range buf {
				buf[j] = 0xff
			}
		}
	})
	w.eng.RunUntil(3 * sim.Second)
	if delivered != n || valid != n {
		t.Fatalf("delivered %d messages, %d with intact bodies; want %d", delivered, valid, n)
	}
	if cli.Stats.FastRetx+cli.Stats.RTORetx == 0 {
		t.Fatal("no retransmission: the loss did not exercise the retransmit path")
	}
	if out := w.net.Bufs().Outstanding(); out != 0 {
		t.Errorf("%d message buffers outstanding after every byte was acknowledged", out)
	}
	if out := w.net.OutstandingPackets(); out != 0 {
		t.Errorf("%d packets outstanding", out)
	}
}
