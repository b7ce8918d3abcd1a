package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/loadgen"
	"repro/internal/sessiond"
	"repro/internal/srvnet"
	"repro/internal/vfs"
	"repro/internal/world"
)

// The remote workloads: two closed-loop srvnet clients against a
// sessiond.Manager served by srvnet.NewMuxServer on TCP loopback, every
// session journaled. The crowded session fsyncs with the default batch
// policy. remote-edit writes its journal without fsync: with one, an
// fsync of about 140 us on a shared disk is most of each of its writes,
// and how many records a batch holds, and so the write latency, follows
// the other tenants of the disk (README.md, "A finding: under batch
// fsync, light-load writes are fsync-bound").

const (
	mnt            = world.MountRoot
	remoteW        = 80
	remoteH        = 24
	crowdWindows   = 2000
	minOwnWindows  = 6 // each client keeps between min and max windows
	maxOwnWindows  = 10
	maxBodyBytes   = 64 << 10
	minPayload     = 16
	maxPayload     = 16 << 10
	readWaitBudget = 2 * time.Second
)

// remoteOp is one kind of client operation.
type remoteOp int

const (
	opBodyRead remoteOp = iota
	opTagRead
	opReadDir
	opReadWait
	opNewWin
	opCtlName
	opCtlDelete
	opBodyWrite
	opBodyApp
	numRemoteOps
)

var remoteOpNames = [numRemoteOps]string{
	"body-read", "tag-read", "readdir", "readwait",
	"newwin", "ctl-name", "ctl-delete", "body-write", "bodyapp",
}

// remoteMix weighs the op kinds by how often each appears in the
// repository's own editing trace, loadgen.DefaultTrace, which also
// drives cmd/helpload: four reads to six mutations. It is the only
// record of remote use the repository holds, and it is itself a guess
// at a plausible session, so the mix is an assumption, not a measured
// one.
var remoteMix, remoteMixTotal = traceMix(loadgen.DefaultTrace())

// traceMix counts a trace's ops by the benchmark's op kinds.
func traceMix(tr *loadgen.Trace) (mix [numRemoteOps]int, total int) {
	for _, op := range tr.Ops {
		k := numRemoteOps
		switch {
		case op.Verb == "read" && strings.HasSuffix(op.Path, "/tag"):
			k = opTagRead
		case op.Verb == "read":
			k = opBodyRead
		case op.Verb == "readdir":
			k = opReadDir
		case op.Verb == "readwait":
			k = opReadWait
		case op.Verb == "newwin":
			k = opNewWin
		case op.Verb == "ctl" && strings.HasPrefix(op.Data, "delete"):
			k = opCtlDelete
		case op.Verb == "ctl":
			k = opCtlName
		case op.Verb == "write":
			k = opBodyWrite
		case op.Verb == "append":
			k = opBodyApp
		}
		if k < numRemoteOps {
			mix[k]++
			total++
		}
	}
	return mix, total
}

func (o remoteOp) mutates() bool { return o >= opNewWin }

// remoteEnv is one set-up instance of a remote workload.
type remoteEnv struct {
	dir     string
	tmpl    *world.Template
	mgr     *sessiond.Manager
	srv     *srvnet.Server
	ln      net.Listener
	wire    *wireCount // nil when untraced
	worlds  map[string]*world.World
	wmu     sync.Mutex
	names   []string // distinct session names
	clients []*remoteClient
	detach  []func()
	timings setupTimings
}

// setupTimings are the per-layer set-up costs of one instance.
type setupTimings struct {
	spawn, build, boot time.Duration
}

// winModel is what a client knows it wrote to one of its windows.
type winModel struct {
	id   int
	name string
	body string
}

// remoteClient is one closed-loop caller and its model of its windows.
type remoteClient struct {
	idx     int
	c       *srvnet.Client
	direct  *vfs.FS // the session's namespace, for the traced direct calls
	rng     *rand.Rand
	text    string // seeded payload source
	wins    []*winModel
	named   int
	since   uint64
	pending bool // a mutation happened since the last readwait
	checks  []error

	probe probeState
}

// probeState is the traced run's direct-call side: a window of its own
// so the client's model is never disturbed.
type probeState struct {
	win   int
	extra []int // windows made by direct newwin calls, removed by direct deletes
	body  int
}

func sessionNames(crowded bool) []string {
	if crowded {
		return []string{"crowd", "crowd"}
	}
	return []string{"edit0", "edit1"}
}

// setupRemote builds one instance: template, manager, mux server, the
// sessions (spawned by a direct AttachSession), the crowded preload,
// and the clients with their first windows.
func setupRemote(work string, idx int, seed int64, crowded, traced bool) (*remoteEnv, error) {
	env := &remoteEnv{
		dir:    filepath.Join(work, fmt.Sprintf("journal-%d", idx)),
		worlds: map[string]*world.World{},
	}
	if err := os.RemoveAll(env.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	wb, err := world.Build(remoteW, remoteH)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := wb.Boot(); err != nil {
		return nil, err
	}
	env.timings.build, env.timings.boot = t1.Sub(t0), time.Since(t1)

	fsync := journal.SyncNever
	if crowded {
		fsync = journal.SyncBatch
	}
	env.tmpl, err = world.NewTemplate()
	if err != nil {
		return nil, err
	}
	env.mgr = sessiond.NewManager(sessiond.Config{
		Width:       remoteW,
		Height:      remoteH,
		JournalRoot: env.dir,
		Fsync:       fsync,
		Build: func(name string, w, h int) (*world.World, error) {
			wld, err := env.tmpl.NewSession(w, h)
			if err == nil {
				env.wmu.Lock()
				env.worlds[name] = wld
				env.wmu.Unlock()
			}
			return wld, err
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.ln = ln
	if traced {
		env.wire = &wireCount{}
		ln = countListener{Listener: ln, c: env.wire}
	}
	env.srv = srvnet.NewMuxServer(env.mgr)
	go env.srv.Serve(ln)

	direct := map[string]*vfs.FS{}
	names := sessionNames(crowded)
	for _, name := range names {
		if direct[name] != nil {
			continue
		}
		ts := time.Now()
		fs, detach, err := env.mgr.AttachSession(name)
		if err != nil {
			env.close()
			return nil, err
		}
		if env.timings.spawn == 0 {
			env.timings.spawn = time.Since(ts)
		}
		direct[name] = fs
		env.detach = append(env.detach, detach)
		env.names = append(env.names, name)
	}
	if crowded {
		if err := preload(direct[names[0]], seed); err != nil {
			env.close()
			return nil, err
		}
	}
	for i, name := range names {
		cl, err := env.dial(i, name, seed)
		if err != nil {
			env.close()
			return nil, err
		}
		cl.direct = direct[name]
		env.clients = append(env.clients, cl)
	}
	return env, nil
}

// preload fills the crowded session with named windows holding a few
// lines each, through the session's own file interface.
func preload(fs *vfs.FS, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	text := payloadSource(rng)
	for i := 0; i < crowdWindows; i++ {
		id, err := newWindow(fs.ReadFile)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		dir := fmt.Sprintf("%s/%d/", mnt, id)
		if err := fs.WriteFile(dir+"ctl", []byte(fmt.Sprintf("name /usr/crowd/f%04d\n", i))); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		n := 64 + rng.Intn(192)
		off := rng.Intn(len(text) - n)
		if err := fs.WriteFile(dir+"body", []byte(text[off:off+n])); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func newWindow(read func(string) ([]byte, error)) (int, error) {
	b, err := read(mnt + "/new/ctl")
	if err != nil {
		return 0, err
	}
	id, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return 0, fmt.Errorf("new/ctl returned %q", b)
	}
	return id, nil
}

// dial connects one client, attaches it, opens its first windows and
// learns the event log's current sequence number.
func (env *remoteEnv) dial(i int, name string, seed int64) (*remoteClient, error) {
	conn, err := net.Dial("tcp", env.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	if env.wire != nil {
		conn = countConn{Conn: conn, c: env.wire}
	}
	c := srvnet.NewClient(conn)
	if err := c.Attach(name); err != nil {
		c.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	cl := &remoteClient{idx: i, c: c, rng: rng, text: payloadSource(rng)}
	for len(cl.wins) < minOwnWindows+1 {
		if err := cl.newWin(); err != nil {
			c.Close()
			return nil, err
		}
	}
	// since 1 replays the bus history; the reply's gen is where to
	// resume, so later readwaits see only new events.
	_, next, err := c.ReadWait(mnt+"/log", 1, readWaitBudget)
	if err != nil {
		c.Close()
		return nil, err
	}
	cl.since = next
	return cl, nil
}

// payloadSource is a seeded block of lower-case words and newlines that
// payloads are cut from.
func payloadSource(rng *rand.Rand) string {
	var b strings.Builder
	for b.Len() < 2*maxPayload {
		for w := rng.Intn(8) + 1; w > 0; w-- {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
		if rng.Intn(10) == 0 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// payload cuts a log-uniform length between 16 B and 16 KiB.
func (cl *remoteClient) payload() string {
	n := int(float64(minPayload) * math.Pow(2, cl.rng.Float64()*math.Log2(maxPayload/minPayload)))
	off := cl.rng.Intn(len(cl.text) - n)
	return cl.text[off : off+n]
}

func (cl *remoteClient) newWin() error {
	id, err := newWindow(cl.c.ReadFile)
	if err != nil {
		return err
	}
	cl.wins = append(cl.wins, &winModel{id: id})
	return nil
}

// pick draws the next op kind and its window, adjusting the kind so the
// client's window count stays within bounds and a readwait only happens
// when this client has produced an event to wait for.
func (cl *remoteClient) pick() (remoteOp, *winModel) {
	x := cl.rng.Intn(remoteMixTotal)
	op := remoteOp(0)
	for ; op < numRemoteOps-1 && x >= remoteMix[op]; op++ {
		x -= remoteMix[op]
	}
	w := cl.wins[cl.rng.Intn(len(cl.wins))]
	switch {
	case op == opNewWin && len(cl.wins) >= maxOwnWindows:
		op = opCtlDelete
	case op == opCtlDelete && len(cl.wins) <= minOwnWindows:
		op = opNewWin
	case op == opReadWait && !cl.pending:
		op = opBodyRead
	}
	return op, w
}

// do runs one op over the wire and checks its result against the model.
func (cl *remoteClient) do(op remoteOp, w *winModel, data string) error {
	dir := fmt.Sprintf("%s/%d/", mnt, w.id)
	switch op {
	case opBodyRead:
		b, err := cl.c.ReadFile(dir + "body")
		if err != nil {
			return err
		}
		cl.check(checkBody(w, string(b)))
	case opTagRead:
		b, err := cl.c.ReadFile(dir + "tag")
		if err != nil {
			return err
		}
		cl.check(checkTag(w, string(b)))
	case opReadDir:
		ents, err := cl.c.ReadDir(strings.TrimSuffix(dir, "/"))
		if err != nil {
			return err
		}
		cl.check(checkWinDir(w, ents))
	case opReadWait:
		b, next, err := cl.c.ReadWait(mnt+"/log", cl.since, readWaitBudget)
		if err != nil {
			return err
		}
		cl.check(checkReadWait(cl.since, next, len(b), cl.pending))
		cl.since, cl.pending = next, false
	case opNewWin:
		if err := cl.newWin(); err != nil {
			return err
		}
	case opCtlName:
		cl.named++
		name := fmt.Sprintf("/usr/bench/c%d/n%d", cl.idx, cl.named)
		if err := cl.c.WriteFile(dir+"ctl", []byte("name "+name+"\n")); err != nil {
			return err
		}
		w.name = name
	case opCtlDelete:
		if err := cl.c.WriteFile(dir+"ctl", []byte("delete\n")); err != nil {
			return err
		}
		for i, x := range cl.wins {
			if x == w {
				cl.wins = append(cl.wins[:i], cl.wins[i+1:]...)
				break
			}
		}
	case opBodyWrite:
		if err := cl.c.WriteFile(dir+"body", []byte(data)); err != nil {
			return err
		}
		w.body = data
	case opBodyApp:
		if err := cl.c.AppendFile(dir+"bodyapp", []byte(data)); err != nil {
			return err
		}
		w.body += data
	}
	if op.mutates() {
		cl.pending = true
	}
	return nil
}

func (cl *remoteClient) check(err error) {
	if err != nil && len(cl.checks) < 16 {
		cl.checks = append(cl.checks, fmt.Errorf("client %d: %w", cl.idx, err))
	}
}

// run is the closed loop: the next op goes out only after the previous
// reply arrived. With a span log it also makes the traced direct call
// of the same kind on the session's namespace every probeEvery ops.
func (cl *remoteClient) run(until time.Time, st *opStats, sl *spanLog) {
	const probeEvery = 4
	for n := 0; ; n++ {
		if n%16 == 0 && time.Now().After(until) {
			return
		}
		op, w := cl.pick()
		var data string
		if op == opBodyApp && len(w.body)+maxPayload > maxBodyBytes {
			op = opBodyWrite
		}
		if op == opBodyWrite || op == opBodyApp {
			data = cl.payload()
		}
		opID := sl.nextOp()
		sinceBefore := cl.since
		t0 := time.Now()
		err := cl.do(op, w, data)
		t1 := time.Now()
		class := classRead
		if op.mutates() {
			class = classWrite
		}
		st.record(class, t1.Sub(t0), err)
		if err != nil && !errors.Is(err, vfs.ErrBusy) {
			// Only a busy refusal is an answer the model allows: it was
			// not applied. Any other error leaves the model unsure.
			cl.check(fmt.Errorf("%s on window %d: %w", remoteOpNames[op], w.id, err))
		}
		if sl == nil {
			continue
		}
		sl.add("srvnet.op."+remoteOpNames[op], t0, t1, -1, opID)
		if n%probeEvery == 0 {
			cl.probeOp(op, data, sinceBefore, sl, opID)
		}
	}
}

// probeOp times the same kind of op called directly on the session's
// *vfs.FS — actor lock, walk, helpfs, core, journal enqueue, notify —
// with no wire in between.
func (cl *remoteClient) probeOp(op remoteOp, data string, since uint64, sl *spanLog, opID int64) {
	fs := cl.direct
	p := &cl.probe
	if p.win == 0 {
		id, err := newWindow(fs.ReadFile)
		if err != nil {
			cl.check(fmt.Errorf("probe window: %w", err))
			return
		}
		p.win = id
	}
	dir := fmt.Sprintf("%s/%d/", mnt, p.win)
	if op == opBodyApp && p.body+len(data) > maxBodyBytes {
		fs.WriteFile(dir+"body", nil)
		p.body = 0
	}
	if op == opCtlDelete && len(p.extra) == 0 {
		id, err := newWindow(fs.ReadFile)
		if err != nil {
			cl.check(fmt.Errorf("probe window: %w", err))
			return
		}
		p.extra = append(p.extra, id)
	}
	var err error
	t0 := time.Now()
	switch op {
	case opBodyRead:
		_, err = fs.ReadFile(dir + "body")
	case opTagRead:
		_, err = fs.ReadFile(dir + "tag")
	case opReadDir:
		_, err = fs.ReadDir(strings.TrimSuffix(dir, "/"))
	case opReadWait:
		_, _, err = fs.ReadWait(mnt+"/log", since, nil, readWaitBudget)
	case opNewWin:
		var id int
		id, err = newWindow(fs.ReadFile)
		if err == nil {
			p.extra = append(p.extra, id)
		}
	case opCtlName:
		err = fs.WriteFile(dir+"ctl", []byte(fmt.Sprintf("name /usr/bench/probe%d\n", cl.idx)))
	case opCtlDelete:
		id := p.extra[len(p.extra)-1]
		p.extra = p.extra[:len(p.extra)-1]
		err = fs.WriteFile(fmt.Sprintf("%s/%d/ctl", mnt, id), []byte("delete\n"))
	case opBodyWrite:
		err = fs.WriteFile(dir+"body", []byte(data))
		p.body = len(data)
	case opBodyApp:
		err = fs.AppendFile(dir+"bodyapp", []byte(data))
		p.body += len(data)
	}
	t1 := time.Now()
	if err != nil {
		cl.check(fmt.Errorf("direct %s: %w", remoteOpNames[op], err))
		return
	}
	sl.add("vfs.op."+remoteOpNames[op], t0, t1, -1, opID)
}

// tidyProbe removes the traced run's extra windows so the session ends
// the size it started.
func (cl *remoteClient) tidyProbe() {
	for _, id := range cl.probe.extra {
		cl.direct.WriteFile(fmt.Sprintf("%s/%d/ctl", mnt, id), []byte("delete\n"))
	}
	cl.probe.extra = nil
}

// measure runs every client closed-loop for d and returns each one's
// statistics. With a tracer, each client records spans and direct
// calls, and a sampler per session times the actor's apply queue.
func (env *remoteEnv) measure(d time.Duration, tr *tracer) ([]*opStats, time.Duration) {
	t0 := time.Now()
	until := t0.Add(d)
	stats := make([]*opStats, len(env.clients))
	var wg sync.WaitGroup
	for i, cl := range env.clients {
		stats[i] = newOpStats(t0)
		sl := tr.log()
		wg.Add(1)
		go func(cl *remoteClient, st *opStats, sl *spanLog) {
			defer wg.Done()
			cl.run(until, st, sl)
		}(cl, stats[i], sl)
	}
	if tr != nil {
		for _, name := range env.names {
			sl := tr.log()
			h := env.worlds[name].Help
			wg.Add(1)
			go func() {
				defer wg.Done()
				sampleActor(h, until, sl)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, cl := range env.clients {
		cl.tidyProbe()
	}
	return stats, elapsed
}

// sampleActor times, at a low fixed rate, how long a closure queued
// with Help.Apply waits for the actor, and how long a quiescent
// Help.JournalSweep takes inside it.
func sampleActor(h *core.Help, until time.Time, sl *spanLog) {
	const every = 2 * time.Millisecond
	tick := time.NewTicker(every)
	defer tick.Stop()
	for time.Now().Before(until) {
		<-tick.C
		op := sl.nextOp()
		var t1, t2, t3 time.Time
		done := make(chan struct{})
		t0 := time.Now()
		h.Apply(func() {
			t1 = time.Now()
			h.JournalSweep() // sweep whatever is pending, so the next one is quiescent
			t2 = time.Now()
			h.JournalSweep()
			t3 = time.Now()
			close(done)
		})
		<-done
		sl.add("core.apply_wait", t0, t1, -1, op)
		sl.add("core.sweep", t2, t3, -1, op)
	}
}

// tidy has every client close the windows it opened, over the wire, so
// the sessions end the size they started.
func (env *remoteEnv) tidy() {
	for _, cl := range env.clients {
		for _, w := range cl.wins {
			if err := cl.c.WriteFile(fmt.Sprintf("%s/%d/ctl", mnt, w.id), []byte("delete\n")); err != nil {
				cl.check(fmt.Errorf("closing window %d: %w", w.id, err))
			}
		}
		cl.wins = nil
	}
}

// flush waits until every session is idle, then checkpoints and writes
// its journal, so the heap holds no checkpoint in flight and the last
// checkpoint is of the tidied session.
func (env *remoteEnv) flush() {
	for _, name := range env.names {
		h := env.worlds[name].Help
		h.WaitIdle()
		h.SyncJournal()
	}
}

// counters reads the per-op counters of every session: journal records
// and bytes appended, and notify bus sequence numbers.
type counterSet struct{ records, bytes, events int64 }

func (env *remoteEnv) counters() counterSet {
	var c counterSet
	for _, name := range env.names {
		c = c.plus(helpCounters(env.worlds[name].Help))
	}
	return c
}

func helpCounters(h *core.Help) counterSet {
	return counterSet{
		records: h.Obs.Counter("journal.appends").Load(),
		bytes:   h.Obs.Counter("journal.bytes").Load(),
		events:  int64(h.Notify.Seq()),
	}
}

func (c counterSet) plus(o counterSet) counterSet {
	return counterSet{c.records + o.records, c.bytes + o.bytes, c.events + o.events}
}

func (c counterSet) minus(o counterSet) counterSet {
	return counterSet{c.records - o.records, c.bytes - o.bytes, c.events - o.events}
}

// panics is how many panics the sessions' guards have recovered. A
// fresh session has none, so any is a failed op. It is read once a
// phase, not around each op: PanicCount takes the actor lock, and on the
// crowded session that would change what the clients wait for.
func (env *remoteEnv) panics() int64 {
	var n int64
	for _, name := range env.names {
		n += int64(env.worlds[name].Help.PanicCount())
	}
	return n
}

// verify gathers the clients' model failures and any recovered panic,
// then checks that each session's journal recovers to its live state.
// It runs straight after the measured phase, so recovery replays the
// phase's tail of records after the last periodic checkpoint.
func (env *remoteEnv) verify() error {
	for _, cl := range env.clients {
		if len(cl.checks) > 0 {
			return cl.checks[0]
		}
	}
	if n := env.panics(); n > 0 {
		return fmt.Errorf("the sessions' guards recovered %d panics", n)
	}
	for _, name := range env.names {
		live := env.worlds[name].Help
		err := checkRecovery(live, filepath.Join(env.dir, name), func() (*core.Help, error) {
			w, err := env.tmpl.NewSession(remoteW, remoteH)
			if err != nil {
				return nil, err
			}
			return w.Help, nil
		})
		if err != nil {
			return fmt.Errorf("session %s: %w", name, err)
		}
	}
	return nil
}

// close stops the clients, the server and every session, and deletes
// the journals.
func (env *remoteEnv) close() {
	for _, cl := range env.clients {
		cl.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if env.srv != nil {
		env.srv.Shutdown(ctx)
	}
	if env.ln != nil {
		env.ln.Close()
	}
	for _, d := range env.detach {
		d()
	}
	if env.mgr != nil {
		env.mgr.Drain(ctx)
	}
	os.RemoveAll(env.dir)
}

// afterMeasure, when set, runs between the measured phase and the
// checks of an untraced remote run; the tests plant mismatches with it.
var afterMeasure func(env *remoteEnv)

// runRemote sets a remote workload up setupReps times, measures the
// last instance, and checks it.
func runRemote(cfg config, crowded bool) (*result, error) {
	var setups []float64
	var env *remoteEnv
	for i := 0; !setupDone(setups); i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := setupRemote(cfg.work, i, cfg.seed, crowded, cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	d := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		sts, elapsed := env.measure(d, nil)
		if afterMeasure != nil {
			afterMeasure(env)
		}
		sum := summarize(sts, elapsed)
		sts = nil // the samples are the benchmark's, not the system's heap
		res := &result{attempted: sum.ops, failed: sum.failed + env.panics()}
		if err := env.verify(); err != nil {
			return res, fmt.Errorf("%w: %v", errCheck, err)
		}
		env.tidy()
		env.flush()
		heap := liveHeapMB()
		for _, cl := range env.clients {
			if len(cl.checks) > 0 { // closing a window failed
				return res, fmt.Errorf("%w: %v", errCheck, cl.checks[0])
			}
		}
		res.metrics, res.extra = endToEnd(sum, setups, heap)
		return res, nil
	}

	// Traced: an untraced half for the baseline rate and the counters,
	// then a traced half under the CPU profiler.
	c0, b0, w0 := env.counters(), env.wire.bytes.Load(), env.wire.writes.Load()
	stA := summarize(env.measure(d/2, nil))
	c1, b1, w1 := env.counters(), env.wire.bytes.Load(), env.wire.writes.Load()
	tr := newTracer()
	var stB summary
	shares, err := profiled(traceDir(cfg.work), cfg.workload, func() {
		stB = summarize(env.measure(d/2, tr))
	})
	if err != nil {
		return nil, err
	}
	res := &result{attempted: stA.ops + stB.ops, failed: stA.failed + stB.failed + env.panics()}
	if err := env.verify(); err != nil {
		return res, fmt.Errorf("%w: %v", errCheck, err)
	}
	if err := tr.write(filepath.Join(traceDir(cfg.work), cfg.workload+".spans.jsonl")); err != nil {
		return nil, err
	}

	lm := map[string]float64{}
	var wireSum, wireN float64
	var reads, writes []float64
	for op := remoteOp(0); op < numRemoteOps; op++ {
		cli := tr.durations("srvnet.op." + remoteOpNames[op])
		dir := tr.durations("vfs.op." + remoteOpNames[op])
		if op.mutates() {
			writes = append(writes, dir...)
		} else {
			reads = append(reads, dir...)
		}
		if len(cli) == 0 || len(dir) == 0 {
			continue
		}
		wireSum += float64(len(cli)) * (median(cli) - median(dir))
		wireN += float64(len(cli))
	}
	if wireN > 0 {
		lm["srvnet.wire_us"] = wireSum / wireN
	}
	lm["vfs.read_us"], lm["vfs.write_us"] = median(reads), median(writes)
	opsA := float64(stA.ops)
	lm["srvnet.bytes_per_op"] = float64(b1-b0) / opsA
	lm["srvnet.writes_per_op"] = float64(w1-w0) / opsA
	dc := c1.minus(c0)
	lm["journal.records_per_op"] = float64(dc.records) / opsA
	lm["journal.bytes_per_op"] = float64(dc.bytes) / opsA
	lm["notify.events_per_op"] = float64(dc.events) / opsA
	waits := tr.durations("core.apply_wait")
	lm["core.apply_wait_p50_us"] = quantileF(waits, 0.50)
	lm["core.apply_wait_p99_us"] = quantileF(waits, 0.99)
	lm["core.sweep_us"] = median(tr.durations("core.sweep"))
	var memBytes int64
	for _, name := range env.names {
		memBytes += env.worlds[name].Help.MemBytes()
	}
	lm["text.resident_mb"] = float64(memBytes) / (1 << 20)
	lm["sessiond.spawn_ms"] = ms(env.timings.spawn)
	lm["world.build_ms"] = ms(env.timings.build)
	lm["world.boot_ms"] = ms(env.timings.boot)
	lm["trace.overhead_frac"] = 1 - stB.rate/stA.rate
	res.metrics = layerMetrics(lm, shares)
	return res, nil
}
