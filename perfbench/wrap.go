package main

import (
	"net/http"
	"strconv"
	"sync"

	"github.com/uta-db/previewtables/internal/dynamic"
	"github.com/uta-db/previewtables/internal/storage"
)

// nodeHandler wraps one node's Server. For a traced request it records
// the service.serve span; for a request the client will check, it notes
// which node served it. Untagged requests (health probes, replication
// polls) pass straight through.
type nodeHandler struct {
	name   string
	h      http.Handler
	tr     *tracer
	served *sync.Map // check id → node name; nil when no workload needs it
}

func (n *nodeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n.served != nil {
		if id := headerID(r.Header, checkHeader); id != 0 {
			n.served.Store(id, n.name)
		}
	}
	req := headerID(r.Header, reqHeader)
	if req == 0 || n.tr == nil {
		n.h.ServeHTTP(w, r)
		return
	}
	s := n.tr.now()
	n.h.ServeHTTP(w, r)
	e := n.tr.now()
	n.tr.add(span{ID: n.tr.newID(), Parent: headerID(r.Header, parentHeader), Req: req,
		Name: spanServe, Node: n.name, Start: s, End: e})
}

// routeHandler wraps the fleet router. It re-stamps the parent header
// with its own span id before the router clones the request's headers
// onto the backend request, which links the backend's serve span to
// this one.
type routeHandler struct {
	h  http.Handler
	tr *tracer
}

func (rh *routeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req := headerID(r.Header, reqHeader)
	if req == 0 || rh.tr == nil {
		rh.h.ServeHTTP(w, r)
		return
	}
	id := rh.tr.newID()
	parent := headerID(r.Header, parentHeader)
	r.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	s := rh.tr.now()
	rh.h.ServeHTTP(w, r)
	e := rh.tr.now()
	rh.tr.add(span{ID: id, Parent: parent, Req: req, Name: spanRoute, Start: s, End: e})
}

// traceWAL replaces live's durability hook with one that makes the same
// WAL.Append call and records it as a storage.wal span, keyed by the
// epoch the batch creates. The durability the registry installed is
// unchanged: the same log receives the same records in the same order.
func traceWAL(live *dynamic.Live, wal *storage.WAL, tr *tracer) {
	live.SetDurability(func(epoch uint64, kind byte, payload []byte) error {
		if !tr.on.Load() {
			return wal.Append(epoch, kind, payload)
		}
		s := tr.now()
		err := wal.Append(epoch, kind, payload)
		e := tr.now()
		tr.add(span{ID: tr.newID(), Epoch: epoch, Name: spanWAL, Start: s, End: e})
		return err
	})
}
