package storage

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
)

// BlobHandler serves a Backend read-only over the content-addressed
// blob protocol Peer speaks. Mount it under a namespace root with
// http.StripPrefix, e.g.:
//
//	mux.Handle("/v1/blobs/results/",
//	    http.StripPrefix("/v1/blobs/results/", storage.BlobHandler(local)))
//
// The protocol, relative to the mount point:
//
//	GET    {name}   object bytes (404 on miss)
//	HEAD   {name}   size + Last-Modified only
//
// Every other method is 405. Every stored object is a pure function of
// its key, so a peer only ever needs to read another node's copy; no
// remote caller can write, delete, rename, list or sweep a node's
// store.
//
// Serve the node's LOCAL backend here, never a Tiered or Peer wrapper:
// a node answering blob requests out of its own peer fetcher would
// bounce misses around the cluster. Misses map to 404, invalid names
// (the namespace root included) to 400, and every backend failure to
// 503 — the remote taxonomy Peer folds back into TransientError on the
// client side.
func BlobHandler(b Backend) http.Handler {
	return &blobHandler{b: b}
}

type blobHandler struct {
	b Backend
}

func (h *blobHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/")
	if !ValidName(name) {
		http.Error(w, "invalid object name", http.StatusBadRequest)
		return
	}
	h.serveObject(w, r, name)
}

// serveObject streams one object. Content-Length comes from Stat, so a
// client can detect truncated transfers; the small stat→get race on a
// concurrently-replaced object surfaces client-side as a length
// mismatch, which Peer classifies transient — the retry then sees a
// consistent object.
func (h *blobHandler) serveObject(w http.ResponseWriter, r *http.Request, name string) {
	info, err := h.b.Stat(name)
	if err != nil {
		h.fail(w, err)
		return
	}
	var rc io.ReadCloser
	if r.Method == http.MethodGet {
		if rc, err = h.b.Get(name); err != nil {
			h.fail(w, err)
			return
		}
		defer rc.Close()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
	w.Header().Set("Last-Modified", info.ModTime.UTC().Format(http.TimeFormat))
	if rc != nil {
		io.Copy(w, rc) // too late for a status on error; the length mismatch tells the client
	}
}

// fail maps a backend read error to a blob-protocol status: miss → 404,
// anything else → 503.
func (h *blobHandler) fail(w http.ResponseWriter, err error) {
	if errors.Is(err, fs.ErrNotExist) {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
}
