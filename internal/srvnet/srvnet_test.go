package srvnet

import (
	"errors"
	"net"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/world"
)

// serve starts a server over fs on a loopback listener and returns a
// connected client.
func serve(t *testing.T, fs *vfs.FS) (*Client, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs)
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv
}

func TestReadWriteRoundTrip(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	c, _ := serve(t, fs)
	if err := c.WriteFile("/d/f", []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadFile("/d/f")
	if err != nil || string(data) != "over the wire" {
		t.Errorf("data=%q err=%v", data, err)
	}
	// The write really landed in the served namespace.
	local, _ := fs.ReadFile("/d/f")
	if string(local) != "over the wire" {
		t.Errorf("local=%q", local)
	}
}

func TestAppendRemote(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	c, _ := serve(t, fs)
	c.WriteFile("/d/log", []byte("a"))
	c.AppendFile("/d/log", []byte("b"))
	data, _ := c.ReadFile("/d/log")
	if string(data) != "ab" {
		t.Errorf("data=%q", data)
	}
}

func TestReadDirStatGlob(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/src")
	fs.WriteFile("/src/a.c", []byte("xx"))
	fs.WriteFile("/src/b.h", []byte("y"))
	c, _ := serve(t, fs)

	ents, err := c.ReadDir("/src")
	if err != nil || len(ents) != 2 || ents[0].Name != "a.c" {
		t.Errorf("ents=%v err=%v", ents, err)
	}
	info, err := c.Stat("/src/a.c")
	if err != nil || info.Size != 2 || info.IsDir {
		t.Errorf("info=%+v err=%v", info, err)
	}
	names, err := c.Glob("/src/*.c")
	if err != nil || len(names) != 1 || names[0] != "/src/a.c" {
		t.Errorf("glob=%v err=%v", names, err)
	}
}

func TestMkdirRemove(t *testing.T) {
	fs := vfs.New()
	c, _ := serve(t, fs)
	if err := c.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if !fs.IsDir("/a/b/c") {
		t.Error("remote mkdir ineffective")
	}
	c.WriteFile("/a/b/c/f", []byte("x"))
	if err := c.Remove("/a/b/c/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a/b/c/f") {
		t.Error("remote remove ineffective")
	}
}

func TestErrorsCrossTheWire(t *testing.T) {
	fs := vfs.New()
	c, _ := serve(t, fs)
	if _, err := c.ReadFile("/nope"); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Errorf("err = %v", err)
	}
	if err := c.WriteFile("/no/dir/f", []byte("x")); err == nil {
		t.Error("write into missing dir should fail")
	}
}

func TestMultipleClients(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(fs).Serve(l)
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	for i, c := range clients {
		name := "/d/f" + string(rune('a'+i))
		if err := c.WriteFile(name, []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	ents, _ := clients[0].ReadDir("/d")
	if len(ents) != 3 {
		t.Errorf("entries = %d", len(ents))
	}
}

// TestRemoteDrivesHelp is the paper's multi-machine scenario: a "CPU
// server process" (the client) drives help's user interface purely
// through the served /mnt/help files — creating a window, naming it, and
// filling it — while help itself lives on the "terminal" (the server
// side).
func TestRemoteDrivesHelp(t *testing.T) {
	w, err := world.Build(100, 40)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := serve(t, w.FS)

	// Create a window by opening new/ctl (a single read does it).
	data, err := c.ReadFile(world.MountRoot + "/new/ctl")
	if err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(string(data))
	if id == "" {
		t.Fatal("no window id over the wire")
	}
	// Name it and append output, 9P-style.
	if err := c.WriteFile(world.MountRoot+"/"+id+"/ctl", []byte("name /remote/results\n")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendFile(world.MountRoot+"/"+id+"/bodyapp", []byte("computed remotely\n")); err != nil {
		t.Fatal(err)
	}

	win := w.Help.WindowByName("/remote/results")
	if win == nil {
		t.Fatal("remote window not created on the terminal side")
	}
	if win.Body.String() != "computed remotely\n" {
		t.Errorf("body = %q", win.Body.String())
	}
	// And the index shows it to remote readers.
	idx, err := c.ReadFile(world.MountRoot + "/index")
	if err != nil || !strings.Contains(string(idx), "/remote/results") {
		t.Errorf("index = %q err=%v", idx, err)
	}
}

func TestUnknownOp(t *testing.T) {
	fs := vfs.New()
	c, _ := serve(t, fs)
	if _, err := c.rpc(request{Op: 0xee}); err == nil {
		t.Error("unknown op should error")
	}
}

func TestServerStopsOnListenerClose(t *testing.T) {
	fs := vfs.New()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fs)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	l.Close()
	if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve returned %v", err)
	}
}

// TestConcurrentClientsStress hammers the server from several goroutines
// at once; the server's lock must keep the namespace consistent (run
// under -race in CI via `make race`).
func TestConcurrentClientsStress(t *testing.T) {
	fs := vfs.New()
	fs.MkdirAll("/d")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(fs).Serve(l)

	const workers = 4
	const opsEach = 100
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			c, err := Dial(l.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			name := "/d/worker" + string(rune('a'+id))
			for i := 0; i < opsEach; i++ {
				if err := c.AppendFile(name, []byte{byte('0' + id)}); err != nil {
					errc <- err
					return
				}
				if _, err := c.ReadDir("/d"); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		name := "/d/worker" + string(rune('a'+w))
		data, err := fs.ReadFile(name)
		if err != nil || len(data) != opsEach {
			t.Errorf("%s: %d bytes, err %v", name, len(data), err)
		}
	}
}
