// Replica-set wiring: the serve-layer face of internal/cluster.
//
// With Config.Peers set, a Server becomes one replica of a set. Three
// mechanisms turn N replicas into one warm engine, all optional-path —
// every peer failure degrades to exactly the single-node behaviour:
//
//   - forward-or-serve: /v1/generate requests are routed to the replica
//     that owns the request's memo content-hash key on the consistent
//     hash ring, so identical requests land on one replica's coalescer
//     and memo cache no matter which replica the client picked. An
//     unreachable owner means the receiving replica serves locally.
//   - the peer memo tier: the shared memo cache's second level becomes
//     local-store-then-peers (cluster.PeerTier), and two internal
//     endpoints expose/accept raw entry bytes. GETs answer strictly
//     from local holdings (store, then in-memory caches) — never from
//     the peer tier, which is what makes peer fetches recursion-free.
//   - the distributed sweep: eligible generate runs offer their §5
//     selection sweep to a core.SweepDistributor that ships contiguous
//     index shards to the replicas over /v1/internal/sweep and merges
//     the outcomes byte-identically (the argument lives in
//     internal/core/shard.go). A dead replica's shard reruns locally.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"marchgen/fault"
	"marchgen/internal/cluster"
	"marchgen/internal/core"
	"marchgen/internal/jobs"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
	"marchgen/internal/simd"
)

// ShardRequest is the body of POST /v1/internal/sweep: one contiguous
// shard [Lo,Hi) of the §5 selection sweep for the given fault list.
// The executing replica re-derives classes and selections from the
// fault list, so the payload names the problem, not the data — both
// sides agree on the index space because the enumeration is a pure
// function of (faults, selection_limit).
type ShardRequest struct {
	// Faults is the comma-separated fault list, as on GenerateRequest.
	Faults string `json:"faults"`
	// SelectionLimit caps the selection enumeration (0: engine default).
	SelectionLimit int `json:"selection_limit,omitempty"`
	// Lo and Hi bound the shard's selection index range [Lo,Hi).
	Lo int `json:"lo"`
	// Hi is the end of the range; see Lo.
	Hi int `json:"hi"`
}

// initCluster wires the replica set into a new Server: the peer client,
// the peer memo tier under the shared cache (layered over the durable
// store tier when one is configured) and the peer tier under the
// kernel's LUT cache.
func (s *Server) initCluster() {
	others := 0
	for _, p := range s.cfg.Peers {
		if p != "" && p != s.cfg.Self {
			others++
		}
	}
	if others == 0 {
		return
	}
	cl := cluster.New(cluster.Config{Self: s.cfg.Self, Peers: s.cfg.Peers, Obs: s.run})
	s.cluster = cl
	var local memo.DiskTier
	if s.store != nil {
		local = jobs.MemoTier(s.store)
	}
	memo.Shared().AttachDisk(cluster.NewPeerTier(local, cl), core.Codec())
	simd.AttachLUTTier(cluster.NewPeerTier(nil, cl))
}

// validMemoKey guards the internal memo endpoints' path parameter:
// memo keys are hex SHA-256 fingerprints, exactly 64 lowercase hex
// characters — anything else is rejected before it reaches a store.
func validMemoKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleMemoGet serves GET /v1/internal/memo/{key}: the raw encoded
// bytes of a locally-held memo entry — durable store first, then the
// in-memory result/fragment cache, then the kernel LUT cache. Strictly
// local: the peer tier is never consulted, so peers probing each other
// cannot recurse.
func (s *Server) handleMemoGet(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErrorNoReq(w, http.StatusServiceUnavailable, "cluster_disabled", "this server is not part of a replica set")
		return
	}
	key := r.PathValue("key")
	if !validMemoKey(key) {
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "malformed memo key")
		return
	}
	data, ok := s.localMemoBytes(key)
	if !ok {
		s.run.Counter("serve.cluster.memo_get.misses").Inc()
		writeErrorNoReq(w, http.StatusNotFound, "not_found", "no local entry under that key")
		return
	}
	s.run.Counter("serve.cluster.memo_get.hits").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// localMemoBytes looks a memo key up in this replica's own holdings.
func (s *Server) localMemoBytes(key string) ([]byte, bool) {
	if s.store != nil {
		if data, ok := jobs.MemoTier(s.store).Get(key); ok {
			return data, true
		}
	}
	if v, ok := memo.Shared().Peek(key); ok {
		if data, ok := core.Codec().Encode(v); ok {
			return data, true
		}
	}
	return simd.PeekEncoded(key)
}

// handleMemoPut serves POST /v1/internal/memo/{key}: a peer offering
// entry bytes for adoption (the replication leg of the peer tier).
// Recognised engine entries are adopted into the in-memory cache and,
// when a store is configured, persisted; LUT entries are adopted into
// the kernel cache. Unrecognised bytes are rejected — a replica never
// stores what it cannot decode.
func (s *Server) handleMemoPut(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErrorNoReq(w, http.StatusServiceUnavailable, "cluster_disabled", "this server is not part of a replica set")
		return
	}
	key := r.PathValue("key")
	if !validMemoKey(key) {
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "malformed memo key")
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes*4))
	if err != nil || len(data) == 0 {
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "unreadable entry body")
		return
	}
	switch {
	case s.adoptEngineEntry(key, data):
	case simd.AdoptEncoded(key, data):
	default:
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "unrecognised entry encoding")
		return
	}
	s.run.Counter("serve.cluster.memo_put.adopted").Inc()
	w.WriteHeader(http.StatusNoContent)
}

// adoptEngineEntry decodes and adopts one engine memo entry (result,
// tour, tpgcost or verdict kind), persisting the original bytes when a
// durable store is configured.
func (s *Server) adoptEngineEntry(key string, data []byte) bool {
	v, ok := core.Codec().Decode(data)
	if !ok {
		return false
	}
	memo.Shared().Adopt(key, v)
	if s.store != nil {
		jobs.MemoTier(s.store).Put(key, data)
	}
	return true
}

// handleSweepShard serves POST /v1/internal/sweep: execute one shard of
// a coordinator's §5 selection sweep in this process. The shard takes a
// regular engine permit, so shard work and direct requests share the
// same concurrency bound.
func (s *Server) handleSweepShard(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErrorNoReq(w, http.StatusServiceUnavailable, "cluster_disabled", "this server is not part of a replica set")
		return
	}
	if s.draining.Load() {
		s.shed(w, "server is draining")
		return
	}
	var req ShardRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	models, err := fault.ParseList(req.Faults)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	ctx = obs.Into(ctx, s.run)
	// Shards take a shardSem permit, not an engine permit: the
	// coordinating replica already holds an engine permit for the whole
	// logical request, and a shared pool would let two concurrent
	// coordinators deadlock on each other (see Server.shardSem).
	select {
	case s.shardSem <- struct{}{}:
	case <-ctx.Done():
		status, code := httpStatus(mapCtxErr(ctx.Err()))
		writeError(w, r, status, code, "shard expired while queued: "+ctx.Err().Error())
		return
	}
	defer func() { <-s.shardSem }()
	out, err := core.RunShardModels(ctx, models, s.shardOptions(req.SelectionLimit), core.SweepShard{Lo: req.Lo, Hi: req.Hi})
	if err != nil {
		status, code := httpStatus(err)
		s.run.Counter("serve.cluster.shard_errors." + code).Inc()
		writeError(w, r, status, code, err.Error())
		return
	}
	s.run.Counter("serve.cluster.shards_served").Inc()
	writeJSON(w, http.StatusOK, out)
}

// shardOptions builds the engine options a shard executes under. They
// must agree with the coordinator's on everything that shapes the
// selection enumeration and the per-selection results — which is the
// engine defaults plus the request's selection limit; workers and cache
// are free local choices (results are invariant to both).
func (s *Server) shardOptions(selectionLimit int) core.Options {
	opts := core.DefaultOptions()
	if selectionLimit > 0 {
		opts.SelectionLimit = selectionLimit
	}
	opts.Workers = s.cfg.Workers
	opts.Cache = memo.Shared()
	return opts
}

// sweepDistributor implements core.SweepDistributor over the replica
// set: one contiguous shard per replica (coordinator included), remote
// shards over /v1/internal/sweep with in-process fallback when a
// replica is unreachable — the property that lets a sweep survive a
// replica kill.
type sweepDistributor struct {
	s              *Server
	faults         string
	selectionLimit int
	assign         map[core.SweepShard]string
}

// distributorFor returns the sweep distributor for a generate request,
// or nil when the request is not distribution-eligible at the serve
// layer: no replica set, heuristic solve, or a budget in play. The
// engine re-checks its own eligibility (exact, unlimited, untruncated)
// before accepting the offer.
func (s *Server) distributorFor(req *GenerateRequest, budgetSpec string) core.SweepDistributor {
	if s.cluster == nil || req.Heuristic || budgetSpec != "" {
		return nil
	}
	return &sweepDistributor{s: s, faults: req.Faults, selectionLimit: req.SelectionLimit}
}

// Shards partitions [0,total) evenly across the replica set, one shard
// per member in sorted-address order. Declines sweeps too small to be
// worth a round trip (fewer than two selections per replica).
func (d *sweepDistributor) Shards(total int) []core.SweepShard {
	members := d.s.cluster.Members()
	n := len(members)
	if n < 2 || total < 2*n {
		return nil
	}
	d.assign = make(map[core.SweepShard]string, n)
	shards := make([]core.SweepShard, 0, n)
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + (total-lo)/(n-i)
		sh := core.SweepShard{Lo: lo, Hi: hi}
		shards = append(shards, sh)
		d.assign[sh] = members[i]
		lo = hi
	}
	return shards
}

// RunShard executes one shard: remotely on its assigned replica, or
// in-process when the shard is the coordinator's own or its replica
// cannot be reached.
func (d *sweepDistributor) RunShard(ctx context.Context, models []fault.Model, opts core.Options, sh core.SweepShard) (*core.ShardOutcome, error) {
	addr := d.assign[sh]
	if addr != "" && addr != d.s.cluster.Self() {
		out, err := d.s.remoteShard(ctx, addr, ShardRequest{
			Faults:         d.faults,
			SelectionLimit: d.selectionLimit,
			Lo:             sh.Lo,
			Hi:             sh.Hi,
		})
		if err == nil {
			return out, nil
		}
		d.s.run.Counter("serve.cluster.shard_fallback_local").Inc()
	}
	return core.RunShardModels(ctx, models, opts, sh)
}

// remoteShard ships one shard to a replica and decodes its outcome.
func (s *Server) remoteShard(ctx context.Context, addr string, sr ShardRequest) (*core.ShardOutcome, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+cluster.SweepPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.run.Counter("serve.cluster.shard_rpc_errors").Inc()
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		s.run.Counter("serve.cluster.shard_rpc_errors").Inc()
		return nil, fmt.Errorf("serve: shard replica %s returned %d", addr, resp.StatusCode)
	}
	var out core.ShardOutcome
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes*4)).Decode(&out); err != nil {
		s.run.Counter("serve.cluster.shard_rpc_errors").Inc()
		return nil, err
	}
	if out.Shard.Lo != sr.Lo || out.Shard.Hi != sr.Hi {
		s.run.Counter("serve.cluster.shard_rpc_errors").Inc()
		return nil, fmt.Errorf("serve: shard replica %s answered range [%d,%d), wanted [%d,%d)", addr, out.Shard.Lo, out.Shard.Hi, sr.Lo, sr.Hi)
	}
	return &out, nil
}

// forwardGenerate relays a generate request to the replica that owns
// its key, streaming the owner's response (whatever its status) back to
// the client. Returns false on transport failure — the caller then
// serves locally, which is always safe: routing is a cache-locality
// optimisation, not a correctness requirement.
func (s *Server) forwardGenerate(w http.ResponseWriter, r *http.Request, owner, id string, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "http://"+owner+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "1")
	req.Header.Set("X-Request-Id", id)
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.run.Counter("serve.cluster.forward_failed").Inc()
		return false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	served := resp.Header.Get(cluster.ServedByHeader)
	if served == "" {
		served = owner
	}
	w.Header().Set(cluster.ServedByHeader, served)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	s.run.Counter("serve.cluster.forwarded").Inc()
	return true
}
