package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the network Device: each rank is its own OS process and
// messages travel as length-prefixed binary frames over one stream socket
// per rank pair (TCP or Unix domain), the MPJ Express "niodev" shape on
// top of the same Send/Recv/collective API as the in-process device.
//
// The simulated α+β·n cost model rides along unchanged: a frame carries
// the sender's simulated availability time as data, so per-rank clocks —
// and therefore every SimTime-based experiment — are bit-identical to an
// in-process run of the same program. What the net device adds is a real
// wall-clock story (per-process obs spans now measure actual transport)
// and worlds bigger than one address space.
//
// Wire safety: payloads cross a process boundary, so they must be
// encodable. []float64 and []byte travel as raw elements (see the frame
// format below); every other payload must be a gob-encodable concrete
// type, registered on both sides via RegisterWire (the common payload
// types are pre-registered below). peachyvet's `wiresafe` rule is the
// static gate for exactly this contract; a type it flags (channels,
// funcs, sync primitives, unexported fields) will fail here at runtime
// with a named error.

// NetConfig describes one process's membership in a multi-process world.
type NetConfig struct {
	// Size is the world size; Rank is this process's rank in [0, Size).
	Size, Rank int
	// Network is "unix" (default; race-free rendezvous via socket files)
	// or "tcp" (loopback or real machines).
	Network string
	// Addrs[r] is rank r's listen address: a socket path for "unix", a
	// host:port for "tcp". Every process must receive the same list.
	Addrs []string
	// DialTimeout bounds mesh establishment — peers may not have bound
	// their listeners yet, so dials retry until this expires (default 10s).
	DialTimeout time.Duration
}

// The PEACHY_* environment contract `peachy launch` uses to hand each
// spawned process its place in the world. OpenWorld reads it back.
const (
	envWorld = "PEACHY_WORLD"
	envRank  = "PEACHY_RANK"
	envNet   = "PEACHY_NET"
	envAddrs = "PEACHY_ADDRS"
)

// Launched reports whether this process was spawned by `peachy launch`
// (the PEACHY_RANK environment contract is present).
func Launched() bool { return os.Getenv(envRank) != "" }

// EnvNetConfig parses the PEACHY_* environment contract into a NetConfig.
// It errors if the contract is absent or malformed.
func EnvNetConfig() (NetConfig, error) {
	var cfg NetConfig
	rank, world := os.Getenv(envRank), os.Getenv(envWorld)
	if rank == "" || world == "" {
		return cfg, fmt.Errorf("cluster: not launched: %s/%s not set", envRank, envWorld)
	}
	var err error
	if cfg.Rank, err = strconv.Atoi(rank); err != nil {
		return cfg, fmt.Errorf("cluster: bad %s=%q", envRank, rank)
	}
	if cfg.Size, err = strconv.Atoi(world); err != nil {
		return cfg, fmt.Errorf("cluster: bad %s=%q", envWorld, world)
	}
	cfg.Network = os.Getenv(envNet)
	if cfg.Network == "" {
		cfg.Network = "unix"
	}
	cfg.Addrs = strings.Split(os.Getenv(envAddrs), ",")
	if len(cfg.Addrs) != cfg.Size {
		return cfg, fmt.Errorf("cluster: %s has %d addresses for world size %d", envAddrs, len(cfg.Addrs), cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return cfg, fmt.Errorf("cluster: rank %d outside world size %d", cfg.Rank, cfg.Size)
	}
	return cfg, nil
}

// OpenWorld creates the World an exhibit should run on. Normally it is an
// in-process world of `ranks` goroutine ranks. When the process was
// spawned by `peachy launch`, the PEACHY_* environment overrides the flag:
// the returned World is this process's single rank of a multi-process
// world on the net device (the same SPMD body then runs per process).
// Callers should `defer world.Close()` and gate once-per-world output on
// world.Lead().
func OpenWorld(ranks int, opts Options) (*World, error) {
	if !Launched() {
		return NewWorldOpts(ranks, opts), nil
	}
	cfg, err := EnvNetConfig()
	if err != nil {
		return nil, err
	}
	return NewNetWorld(cfg, opts)
}

// NewNetWorld joins a multi-process world: it binds this rank's listener,
// establishes one connection to every peer (lower ranks accept, higher
// ranks dial — one connection per rank pair) and returns once the full
// mesh is up, which doubles as the world's startup barrier. The returned
// World holds only the local rank; Run executes its function once, on
// that rank.
func NewNetWorld(cfg NetConfig, opts Options) (*World, error) {
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("cluster: bad net world rank %d of %d", cfg.Rank, cfg.Size)
	}
	if len(cfg.Addrs) != cfg.Size {
		return nil, fmt.Errorf("cluster: %d addresses for world size %d", len(cfg.Addrs), cfg.Size)
	}
	network := cfg.Network
	if network == "" {
		network = "unix"
	}
	if network != "unix" && network != "tcp" {
		return nil, fmt.Errorf("cluster: unsupported network %q (want unix or tcp)", network)
	}
	w := &World{size: cfg.Size, opts: opts, local: cfg.Rank}
	w.boxes = make([]*mailbox, cfg.Size)
	w.comms = make([]*Comm, cfg.Size)
	w.boxes[cfg.Rank] = newMailbox(cfg.Size)
	w.comms[cfg.Rank] = newWorldComm(w, cfg.Rank)

	d := &netDevice{
		world:   w,
		rank:    cfg.Rank,
		network: network,
		box:     w.boxes[cfg.Rank],
		conns:   make([]net.Conn, cfg.Size),
		writers: make([]*frameWriter, cfg.Size),
		state:   make([]atomic.Pointer[string], cfg.Size),
	}
	w.dev = d
	if err := d.connect(network, cfg); err != nil {
		d.close()
		return nil, err
	}
	for r, conn := range d.conns {
		if conn != nil {
			go d.readLoop(r, conn)
		}
	}
	return w, nil
}

// netDevice moves messages over one stream socket per rank pair.
type netDevice struct {
	world    *World
	rank     int
	network  string // "unix" or "tcp"
	box      *mailbox
	listener net.Listener
	conns    []net.Conn     // peer rank -> connection (nil at self)
	writers  []*frameWriter // peer rank -> frame encoder
	state    []atomic.Pointer[string]
	traced   atomic.Bool // set by World.Observe: readLoop times decodes
	closing  atomic.Bool
	closeMu  sync.Mutex
}

// connect establishes the full mesh. Each pair (i, j) with i < j gets
// exactly one connection: j dials i's listener and sends a 4-byte rank
// hello; i accepts and reads it. The listener is bound before any dial,
// and dials retry while peers are still binding, so start order does not
// matter.
func (d *netDevice) connect(network string, cfg NetConfig) error {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if d.rank < cfg.Size-1 { // someone will dial us
		ln, err := net.Listen(network, cfg.Addrs[d.rank])
		if err != nil {
			return fmt.Errorf("cluster: rank %d listen %s %s: %w", d.rank, network, cfg.Addrs[d.rank], err)
		}
		d.listener = ln
	}
	// Dial every lower rank. The kernel's listen backlog holds our hello
	// until the peer gets around to accepting, so dialing serially before
	// accepting cannot deadlock.
	for peer := 0; peer < d.rank; peer++ {
		conn, err := dialRetry(network, cfg.Addrs[peer], deadline)
		if err != nil {
			return fmt.Errorf("cluster: rank %d dial rank %d (%s): %w", d.rank, peer, cfg.Addrs[peer], err)
		}
		var hello [4]byte
		binary.BigEndian.PutUint32(hello[:], uint32(d.rank))
		if _, err := conn.Write(hello[:]); err != nil {
			return fmt.Errorf("cluster: rank %d hello to rank %d: %w", d.rank, peer, err)
		}
		d.attach(peer, conn)
	}
	// Accept every higher rank.
	for accepted := 0; accepted < cfg.Size-1-d.rank; accepted++ {
		switch ln := d.listener.(type) {
		case *net.TCPListener:
			ln.SetDeadline(deadline)
		case *net.UnixListener:
			ln.SetDeadline(deadline)
		}
		conn, err := d.listener.Accept()
		if err != nil {
			return fmt.Errorf("cluster: rank %d accepting peers (%d of %d connected): %w",
				d.rank, accepted, cfg.Size-1-d.rank, err)
		}
		var hello [4]byte
		conn.SetReadDeadline(deadline)
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return fmt.Errorf("cluster: rank %d reading hello: %w", d.rank, err)
		}
		conn.SetReadDeadline(time.Time{})
		peer := int(binary.BigEndian.Uint32(hello[:]))
		if peer <= d.rank || peer >= cfg.Size || d.conns[peer] != nil {
			return fmt.Errorf("cluster: rank %d got bad hello from rank %d", d.rank, peer)
		}
		d.attach(peer, conn)
	}
	// The mesh is complete; nothing else will connect.
	if d.listener != nil {
		d.listener.Close()
		d.listener = nil
	}
	return nil
}

func (d *netDevice) attach(peer int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over throughput: frames are small
	}
	d.conns[peer] = conn
	d.writers[peer] = newFrameWriter(conn)
	s := "open"
	d.state[peer].Store(&s)
}

// The wait between refused dials starts at dialWaitMin and doubles up to
// dialWaitMax. A dialer that beats its listener, as the last-started rank
// does when ranks share a process, then connects about as soon as the
// listener binds, and a slow-starting peer process is still dialed at
// most once per dialWaitMax.
const (
	dialWaitMin = 10 * time.Microsecond
	dialWaitMax = 2 * time.Millisecond
)

// dialRetry dials addr until it connects or the deadline passes. A
// refusal means the peer has not bound its listener yet, so it waits and
// dials again, never sleeping past the deadline. Once the deadline has
// passed it dials no more and returns the last refusal, which says why
// the peer never answered: a dial left with almost no time fails as a
// timeout instead, so a timeout stands only when no dial was refused.
func dialRetry(network, addr string, deadline time.Time) (net.Conn, error) {
	wait := dialWaitMin
	var cause error
	for {
		conn, err := net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if ne, ok := err.(net.Error); cause == nil || !ok || !ne.Timeout() {
			cause = err
		}
		if left := time.Until(deadline); left > 0 {
			time.Sleep(min(wait, left))
		}
		if time.Until(deadline) <= 0 {
			return nil, fmt.Errorf("%w (dial deadline passed)", cause)
		}
		wait = min(2*wait, dialWaitMax)
	}
}

// deliver implements Device: local delivery is a mailbox put, remote
// delivery is one frame on the peer's connection. Only the local rank's
// goroutine sends, so the writer needs no lock — which also makes it the
// place to fold the wire-level net.tx aggregate (frame count, frame
// bytes, encode+write wall time) into the rank's recorder. Wall times
// stay out of the deterministic timeline: WireSpan records counters and
// a histogram only, never a trace event.
func (d *netDevice) deliver(dst int, msg message) {
	if dst == d.rank {
		d.box.put(msg)
		return
	}
	rec := d.world.comms[d.rank].rec // only the local rank delivers remotely
	start := rec.Now()
	frameB, err := d.writers[dst].writeMsg(&msg)
	if err != nil {
		if isConnError(err) {
			panic(fmt.Sprintf(
				"cluster: rank %d: send to rank %d failed: %v — connection closed/reset, remote process likely exited or crashed",
				d.rank, dst, err))
		}
		if errors.Is(err, errFrameTooLarge) {
			panic(fmt.Sprintf(
				"cluster: rank %d: payload %T cannot be sent to rank %d: %v — split it into smaller messages",
				d.rank, msg.payload, dst, err))
		}
		// Not a transport failure: gob refused the payload.
		panic(fmt.Sprintf(
			"cluster: rank %d: payload %T is not wire-safe: %v — netdev payloads must be gob-encodable and registered (cluster.RegisterWire); run `go run ./cmd/peachyvet` for the static wiresafe check",
			d.rank, msg.payload, err))
	}
	rec.WireSpan("net.tx", frameB, rec.Now()-start)
}

// isConnError reports whether a write failed because the connection is
// gone. It matches error values, not text: an encoding error whose
// message mentions a reset is still an encoding error.
func isConnError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNRESET)
}

// readLoop decodes frames from one peer into the local mailbox. On
// connection close/reset it marks the peer down so a blocked receive
// fails with a dead-peer diagnosis instead of timing out. A frame whose
// body does not decode also ends the stream, since the decoder cannot
// resynchronize, but it is diagnosed as the payload's fault: the peer
// process is still alive. Each delivered message is stamped with its
// wire size and, once a trace is attached, its decode time (socket wait
// excluded — the frame is fully buffered before the decode is timed);
// the rank's goroutine folds the stamps into the recorder in recvRaw,
// keeping the recorder single-writer. With no trace attached the loop
// reads no clock.
func (d *netDevice) readLoop(peer int, conn net.Conn) {
	fr := newFrameReader(conn)
	for {
		err := fr.fetch()
		var msg message
		if err == nil {
			if d.traced.Load() {
				start := time.Now()
				msg, err = fr.decode()
				msg.decNs = time.Since(start).Nanoseconds()
			} else {
				msg, err = fr.decode()
			}
		}
		if err != nil {
			if d.closing.Load() {
				return // normal shutdown, not a dead peer
			}
			reason, dead := fmt.Errorf("connection reset: %w", err), true
			switch {
			case errors.Is(err, errUndecodable):
				reason, dead = err, false
			case errors.Is(err, errFrameTooLarge):
				reason = err
			case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
				reason = errors.New("connection closed")
			}
			s := reason.Error()
			if dead {
				s += " — the process exited or crashed"
			}
			d.state[peer].Store(&s)
			d.box.markPeerDown(peer, fmt.Errorf("rank %d: %w", peer, reason))
			return
		}
		// The connection names the sender; the header does not.
		msg.src, msg.wireB = peer, int64(4+len(fr.buf))
		d.box.put(msg)
	}
}

// peerInfo implements Device for the deadlock dump: remote mailboxes are
// invisible, so report the transport state of the link instead.
func (d *netDevice) peerInfo(rank int) string {
	if rank == d.rank {
		return "local"
	}
	s := d.state[rank].Load()
	if s == nil {
		return "remote rank (never connected)"
	}
	if *s == "open" {
		return "remote rank (connection open; its mailbox state is not visible from this process)"
	}
	return "remote rank: " + *s
}

func (d *netDevice) name() string { return "net/" + d.network }

func (d *netDevice) close() error {
	d.closeMu.Lock()
	defer d.closeMu.Unlock()
	if d.closing.Swap(true) {
		return nil
	}
	if d.listener != nil {
		d.listener.Close()
	}
	for _, conn := range d.conns {
		if conn != nil {
			conn.Close()
		}
	}
	return nil
}

// maxFrame bounds the body of one frame (256 MiB). A reader rejects a
// longer length prefix before allocating for it, so a corrupt or hostile
// stream cannot exhaust a rank's memory, and a writer refuses to send a
// longer frame, so an oversized payload fails at its sender.
const maxFrame = 256 << 20

// errFrameTooLarge marks a frame over maxFrame, read or written.
var errFrameTooLarge = errors.New("frame too large")

// errUndecodable marks a peer that sent a frame whose body does not
// decode. The peer process is alive, but the stream from it is unusable.
var errUndecodable = errors.New("sent a frame that does not decode")

// A frame is a 4-byte big-endian body length, then the body:
//
//	kind      1 byte, one of the kinds below
//	Tag       signed varint (collective and group tags are negative)
//	Bytes     signed varint
//	Arrive    8 bytes, the float64's IEEE-754 bits
//	Op, Site  each a uvarint length, then the string (the Verify stamps)
//	payload   by kind
//
// Fixed-width fields are little-endian. nil and struct{} carry no payload
// bytes: gob cannot encode either as an interface value, and Barrier
// sends struct{}{}. []float64 and []byte carry a uvarint element count,
// then the raw elements. Every other payload is kindGob, the gob encoding
// of the interface value.
const (
	kindNil byte = iota
	kindEmpty
	kindGob
	kindFloat64s
	kindBytes
)

// le is the byte order of a frame body's fixed-width fields.
var le = binary.LittleEndian

// frameWriter encodes each message as one frame and sends it with one
// Write: the body is built behind 4 reserved bytes, which are patched
// with its length once it is complete. The gob encoder is persistent per
// connection and appends to the same buffer, so a gob type descriptor
// crosses the wire once, inside the first frame that holds the type.
type frameWriter struct {
	conn io.Writer
	buf  frameBuf
	enc  *gob.Encoder
}

// frameBuf is the frame under construction. Write lets the gob encoder
// append a kindGob payload to it.
type frameBuf []byte

func (b *frameBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

func newFrameWriter(conn io.Writer) *frameWriter {
	fw := &frameWriter{conn: conn}
	fw.enc = gob.NewEncoder(&fw.buf)
	return fw
}

// writeMsg encodes m and writes it as one frame, returning the bytes put
// on the wire (length prefix + body) for the sender's net.tx aggregate.
func (fw *frameWriter) writeMsg(m *message) (int64, error) {
	b := append(fw.buf[:0], 0, 0, 0, 0, 0) // length and kind, patched below
	b = binary.AppendVarint(b, int64(m.tag))
	b = binary.AppendVarint(b, int64(m.bytes))
	b = le.AppendUint64(b, math.Float64bits(m.arrive))
	b = append(binary.AppendUvarint(b, uint64(len(m.op))), m.op...)
	b = append(binary.AppendUvarint(b, uint64(len(m.site))), m.site...)
	kind, b := appendPayload(b, m.payload)
	b[4] = kind
	fw.buf = b
	if kind == kindGob {
		p := m.payload // Encode's argument escapes; the copy keeps *m on the caller's stack
		if err := fw.enc.Encode(&p); err != nil {
			return 0, err
		}
	}
	body := len(fw.buf) - 4
	if body > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes encoded, the limit is %d", errFrameTooLarge, body, maxFrame)
	}
	binary.BigEndian.PutUint32(fw.buf, uint32(body))
	if _, err := fw.conn.Write(fw.buf); err != nil {
		return 0, err
	}
	return int64(len(fw.buf)), nil
}

// appendPayload appends p's elements when its type has a kind of its own
// and returns that kind. For any other type it returns kindGob and
// appends nothing.
func appendPayload(b []byte, p any) (byte, []byte) {
	switch v := p.(type) {
	case nil:
		return kindNil, b
	case struct{}:
		return kindEmpty, b
	case []float64:
		b = binary.AppendUvarint(b, uint64(len(v)))
		n := len(b)
		b = slices.Grow(b, 8*len(v))[:n+8*len(v)]
		for i, x := range v {
			le.PutUint64(b[n+8*i:], math.Float64bits(x))
		}
		return kindFloat64s, b
	case []byte:
		return kindBytes, append(binary.AppendUvarint(b, uint64(len(v))), v...)
	}
	return kindGob, b
}

// frameReader reads the framed stream a whole frame at a time: fetch
// pulls the next frame off the socket into a buffer, and decode turns its
// body into a message. The split is what makes the net.rx decode timing
// honest — the socket wait happens in fetch, so decode's wall time
// measures codec work, not idle time waiting for a peer to send. gob
// reads a kindGob payload through Read and ReadByte, which end where the
// frame ends, so a gob payload never reads into the next frame.
type frameReader struct {
	r   *bufio.Reader
	hdr [4]byte // a field, not a local: io.ReadFull would move a local to the heap
	buf []byte  // current frame's body
	pos int
	err error // the current frame's first decode failure
	dec *gob.Decoder
}

func newFrameReader(r io.Reader) *frameReader {
	fr := &frameReader{r: bufio.NewReader(r)}
	fr.dec = gob.NewDecoder(fr) // fr is an io.ByteReader, so gob adds no buffer of its own
	return fr
}

// fetch reads one whole frame (header + body) into the buffer. A header
// declaring more than maxFrame bytes is an error before any allocation.
func (fr *frameReader) fetch() error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return err
	}
	size := binary.BigEndian.Uint32(fr.hdr[:])
	if size > maxFrame {
		return fmt.Errorf("%w: header declares %d bytes, the limit is %d", errFrameTooLarge, size, maxFrame)
	}
	n := int(size)
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	fr.pos = 0
	return nil
}

// decode decodes the fetched frame's body into a message; src, wireB and
// decNs are left to the caller. A body that ends early, declares more
// elements than it holds, names an unknown kind or has bytes after its
// payload is an error wrapping errUndecodable.
func (fr *frameReader) decode() (message, error) {
	fr.err = nil
	var m message
	kind, err := fr.ReadByte()
	fr.fail(err)
	m.tag = int(fr.varint())
	m.bytes = int(fr.varint())
	m.arrive = math.Float64frombits(fr.u64())
	m.op = fr.str()
	m.site = fr.str()
	if fr.err != nil {
		return message{}, fmt.Errorf("%w: header: %w", errUndecodable, fr.err)
	}
	switch kind {
	case kindNil:
	case kindEmpty:
		m.payload = struct{}{}
	case kindGob:
		var p any
		fr.fail(fr.dec.Decode(&p))
		m.payload = p
	case kindFloat64s:
		e := fr.elems(8)
		s := makeSlice[float64](len(e) / 8)
		for i := range s {
			s[i] = math.Float64frombits(le.Uint64(e[8*i:]))
		}
		m.payload = s
	case kindBytes:
		e := fr.elems(1)
		s := makeSlice[byte](len(e))
		copy(s, e)
		m.payload = s
	default:
		fr.fail(errors.New("unknown kind"))
	}
	if fr.err == nil && fr.pos != len(fr.buf) {
		fr.fail(fmt.Errorf("%d bytes left unread", len(fr.buf)-fr.pos))
	}
	if fr.err != nil {
		what := fmt.Sprintf("kind %d payload", kind)
		if kind == kindGob {
			what = "gob payload"
		}
		return message{}, fmt.Errorf("%w: %s: %w", errUndecodable, what, fr.err)
	}
	return m, nil
}

// Read and ReadByte serve the rest of the current frame, and report
// io.ErrUnexpectedEOF at its end: a payload that wants more bytes than
// its frame holds is truncated.
func (fr *frameReader) Read(p []byte) (int, error) {
	if fr.pos == len(fr.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, fr.buf[fr.pos:])
	fr.pos += n
	return n, nil
}

func (fr *frameReader) ReadByte() (byte, error) {
	if fr.pos == len(fr.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	fr.pos++
	return fr.buf[fr.pos-1], nil
}

// The field readers below record the frame's first error in fr.err and
// return zero values from then on, so decode checks once per part.

func (fr *frameReader) fail(err error) {
	if fr.err == nil {
		fr.err = err
	}
}

// take returns the next n bytes of the frame, or nil once the frame has
// failed or holds fewer than n.
func (fr *frameReader) take(n uint64) []byte {
	if fr.err == nil && n > uint64(len(fr.buf)-fr.pos) {
		fr.fail(io.ErrUnexpectedEOF)
	}
	if fr.err != nil {
		return nil
	}
	b := fr.buf[fr.pos : fr.pos+int(n)]
	fr.pos += int(n)
	return b
}

func (fr *frameReader) u64() uint64 {
	if b := fr.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (fr *frameReader) varint() int64 {
	v, err := binary.ReadVarint(fr)
	fr.fail(err)
	return v
}

func (fr *frameReader) str() string {
	n, err := binary.ReadUvarint(fr)
	fr.fail(err)
	return string(fr.take(n))
}

// elems reads a slice kind's element count and returns its elements'
// bytes. The count is checked against the bytes left in the frame before
// anything is allocated for it.
func (fr *frameReader) elems(width uint64) []byte {
	n, err := binary.ReadUvarint(fr)
	fr.fail(err)
	if left := uint64(len(fr.buf) - fr.pos); fr.err == nil && n > left/width {
		fr.fail(fmt.Errorf("%d elements of %d bytes declared, %d bytes left", n, width, left))
	}
	return fr.take(n * width)
}

// makeSlice returns n elements, or nil for none: gob delivers an empty
// slice as a typed nil, and the raw-element kinds keep that.
func makeSlice[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// RegisterWire registers payload types for the net device's gob path.
// Any concrete type that crosses the wire inside a message must be
// registered by both sides before the world runs: call it from an init
// function with zero values of your payload types (and, for types that
// ride Gather/Scatter/Allgather, the slice type []T too — the binomial
// trees forward segments). The common scalar and slice payloads are
// pre-registered; []float64 and []byte travel as raw elements, not gob,
// unless they sit inside another payload.
func RegisterWire(vs ...any) {
	for _, v := range vs {
		gob.Register(v)
	}
}

func init() {
	// The payload vocabulary of the built-in substrates and exhibits.
	// Slices-of-slices appear because tree Gather/Scatter forward []T
	// segments of user payloads that are themselves slices.
	RegisterWire(
		int32(0), int64(0), uint64(0), float32(0),
		[]float64(nil), []float32(nil), []int(nil), []int32(nil),
		[]int64(nil), []uint64(nil), []bool(nil), []byte(nil), []string(nil),
		[][]float64(nil), [][]float32(nil), [][]int(nil), [][]int64(nil),
		[][]string(nil), [][][]float64(nil),
		splitEntry{}, []splitEntry(nil),
	)
}
