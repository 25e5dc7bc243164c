package storage_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// Every shipped backend — and the cluster compositions — passes the
// identical exported contract suite. The networked backends run
// against a real HTTP server (BlobHandler over Mem on an httptest
// listener), so the suite exercises the wire protocol too. Peer is
// read-only, so its suites write on the serving node and read over
// the wire.

func TestDirContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) storage.Backend {
		d, err := storage.NewDir(filepath.Join(t.TempDir(), "store"), 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}

func TestMemContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) storage.Backend {
		return storage.NewMem()
	})
}

// blobServer starts one blob node over a fresh Mem backend and returns
// its namespace base URL.
func blobServer(t *testing.T) string {
	t.Helper()
	return blobNode(t, storage.NewMem())
}

// blobNode serves b read-only over the blob protocol and returns the
// node's namespace base URL.
func blobNode(t *testing.T, b storage.Backend) string {
	t.Helper()
	srv := httptest.NewServer(http.StripPrefix("/v1/blobs/results/", storage.BlobHandler(b)))
	t.Cleanup(srv.Close)
	return srv.URL + "/v1/blobs/results"
}

func peerClient() *http.Client { return &http.Client{Timeout: 5 * time.Second} }

// peerReads is the contract view of the read-only peer tier: every
// mutation lands directly on a serving node's own store, and every
// Get/Stat goes over the wire through Peer. The suite then checks
// that Peer reads back exactly what the node holds — replaced,
// renamed, swept, or never written.
type peerReads struct {
	storage.Backend // the serving node's local store
	peer            *storage.Peer
}

func (r peerReads) Get(name string) (io.ReadCloser, error) { return r.peer.Get(name) }
func (r peerReads) Stat(name string) (storage.Info, error) { return r.peer.Stat(name) }

func TestPeerContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) storage.Backend {
		node := storage.NewMem()
		return peerReads{Backend: node, peer: storage.NewPeer(peerClient(), []string{blobNode(t, node)})}
	})
}

func TestPeerTwoNodeContract(t *testing.T) {
	// Two remote nodes, every object on the second: rendezvous routing
	// must still find it, whether the holder is the name's owner (one
	// round trip) or not (the owner's 404, then the holder's 200).
	storagetest.TestBackend(t, func(t *testing.T) storage.Backend {
		holder := storage.NewMem()
		nodes := []string{blobServer(t), blobNode(t, holder)}
		return peerReads{Backend: holder, peer: storage.NewPeer(peerClient(), nodes)}
	})
}

func TestTieredContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) storage.Backend {
		remote := storage.NewPeer(peerClient(), []string{blobServer(t)})
		return storage.NewTiered(storage.NewMem(), remote)
	})
}
