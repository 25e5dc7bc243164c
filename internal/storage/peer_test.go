package storage_test

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestRendezvousDeterministicAndOrderIndependent(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	shuffled := []string{"http://c:1", "http://a:1", "http://b:1"}
	for _, key := range []string{"x.bin", "y.bin", "fig2-abc123.json", "quarantine/z.bin"} {
		a := storage.Rendezvous(key, nodes)
		b := storage.Rendezvous(key, shuffled)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("rendezvous order for %q depends on input order: %v vs %v", key, a, b)
		}
		if strings.Join(a, ",") != strings.Join(storage.Rendezvous(key, nodes), ",") {
			t.Fatalf("rendezvous for %q is not deterministic", key)
		}
	}
}

func TestRendezvousSpreadsOwnership(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	owned := map[string]int{}
	for i := 0; i < 300; i++ {
		key := strings.Repeat("k", 1+i%7) + string(rune('a'+i%26)) + ".bin"
		owned[storage.Rendezvous(key, nodes)[0]]++
	}
	for _, n := range nodes {
		if owned[n] == 0 {
			t.Fatalf("node %s owns no keys out of 300: %v", n, owned)
		}
	}
}

func TestRendezvousRemovalOnlyMovesOwnedKeys(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	survivors := []string{"http://a:1", "http://c:1"}
	for i := 0; i < 200; i++ {
		key := string(rune('a'+i%26)) + strings.Repeat("x", i%11) + ".bin"
		before := storage.Rendezvous(key, nodes)[0]
		after := storage.Rendezvous(key, survivors)[0]
		if before != "http://b:1" && after != before {
			t.Fatalf("removing b moved key %q from %s to %s", key, before, after)
		}
	}
}

func TestPeerAllNodesDownIsTransient(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	p := storage.NewPeer(peerClient(), []string{dead.URL})
	if _, err := p.Get("a.bin"); !storage.IsTransient(err) {
		t.Fatalf("get with all peers down must be transient, got %v", err)
	}
	if errors.Is(func() error { _, err := p.Get("a.bin"); return err }(), fs.ErrNotExist) {
		t.Fatal("an unreachable fleet must not read as a miss")
	}
	if _, err := p.Stat("a.bin"); !storage.IsTransient(err) {
		t.Fatalf("stat with all peers down must be transient, got %v", err)
	}
}

func TestPeerNoNodesIsAlwaysMiss(t *testing.T) {
	p := storage.NewPeer(peerClient(), nil)
	if _, err := p.Get("a.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("get with no nodes: %v", err)
	}
	if _, err := p.Stat("a.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat with no nodes: %v", err)
	}
}

func TestPeerPutFailedCallbackSendsNothing(t *testing.T) {
	// The peer tier is read-only: every mutation is refused locally as
	// a backend error — never a miss, never transient — without running
	// the write callback or sending a request.
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		http.NotFound(w, r)
	}))
	t.Cleanup(srv.Close)
	p := storage.NewPeer(peerClient(), []string{srv.URL})
	ran := false
	_, listErr := p.List("")
	for op, err := range map[string]error{
		"put":    p.Put("a.bin", func(w io.Writer) error { ran = true; return errors.New("generator exploded") }),
		"delete": p.Delete("a.bin"),
		"rename": p.Rename("a.bin", storage.QuarantinePrefix+"a.bin"),
		"list":   listErr,
	} {
		var se *storage.Error
		if !errors.As(err, &se) || errors.Is(err, fs.ErrNotExist) || storage.IsTransient(err) {
			t.Errorf("%s: got %v, want a read-only *storage.Error", op, err)
		}
	}
	if n := p.Sweep(0); n != 0 {
		t.Errorf("sweep removed %d objects through a peer", n)
	}
	if ran {
		t.Error("put ran its write callback")
	}
	if requests != 0 {
		t.Fatalf("peer mutations reached the wire: %d requests", requests)
	}
}

func TestPeerReadsPreferOwner(t *testing.T) {
	// Two nodes; only the rendezvous owner holds the object. The first
	// request must go to the owner (one request total, no fan-out).
	var hits [2]int
	mems := [2]*storage.Mem{storage.NewMem(), storage.NewMem()}
	var urls []string
	for i := 0; i < 2; i++ {
		i := i
		h := http.StripPrefix("/", storage.BlobHandler(mems[i]))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i]++
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	const name = "owned.bin"
	owner := storage.Rendezvous(name, urls)[0]
	ownerIdx := 0
	if owner == urls[1] {
		ownerIdx = 1
	}
	if err := mems[ownerIdx].Put(name, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p := storage.NewPeer(peerClient(), urls)
	rc, err := p.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(rc)
	rc.Close()
	if hits[ownerIdx] != 1 || hits[1-ownerIdx] != 0 {
		t.Fatalf("warm owner-first get took %d owner / %d non-owner requests, want 1/0", hits[ownerIdx], hits[1-ownerIdx])
	}
}

func TestBlobHandlerRejectsEscapes(t *testing.T) {
	srv := httptest.NewServer(http.StripPrefix("/", storage.BlobHandler(storage.NewMem())))
	t.Cleanup(srv.Close)
	// The namespace root is no listing: an empty name is invalid too.
	for _, path := range []string{"/..%2Fescape.bin", "/a%2F..%2F..%2Fb", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
