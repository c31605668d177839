package cluster

// The binary wire protocol, cluster side. A Node implements wire.Backend
// directly: write opcodes run through the same locked acquire/renew/release
// paths as the HTTP handlers (one contract, two encodings), with the frame's
// epoch field standing in for the X-Cluster-Epoch header, and the read
// opcodes serving the identical JSON bodies as blobs. The routed client
// prefers a member's wire endpoint for lease traffic and falls back to HTTP
// when the member advertises none (or its wire connection dies mid-run).

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/levelarray/levelarray/internal/activity"
	"github.com/levelarray/levelarray/internal/lease"
	"github.com/levelarray/levelarray/internal/server"
	"github.com/levelarray/levelarray/internal/trace"
	"github.com/levelarray/levelarray/internal/wire"
)

// wireCode maps the JSON error-code vocabulary onto frame codes; the inverse
// of wire.Code.String.
func wireCode(s string) wire.Code {
	switch s {
	case server.ErrCodeFull:
		return wire.CodeFull
	case server.ErrCodeStaleToken:
		return wire.CodeStaleToken
	case server.ErrCodeNotLeased:
		return wire.CodeNotLeased
	case server.ErrCodeClosed:
		return wire.CodeClosed
	case server.ErrCodeTTL:
		return wire.CodeTTLTooLong
	case server.ErrCodeBadRequest:
		return wire.CodeBadRequest
	case ErrCodeStaleEpoch:
		return wire.CodeStaleEpoch
	case ErrCodeNotOwner:
		return wire.CodeNotOwner
	case ErrCodeWarming:
		return wire.CodeWarming
	case ErrCodeNoPartitions:
		return wire.CodeNoPartitions
	default:
		return wire.CodeInternal
	}
}

// wireGrant converts a cluster grant body to its frame shape.
func wireGrant(g GrantResponse) wire.Grant {
	return wire.Grant{
		Name:              int64(g.Name),
		Token:             g.Token,
		DeadlineUnixMilli: g.DeadlineUnixMillis,
		NodeID:            int32(g.NodeID),
		Partition:         int32(g.Partition),
		Epoch:             g.Epoch,
	}
}

// replyToWire maps one deferred HTTP reply onto a wire response.
func replyToWire(rep reply, resp *wire.Response) {
	switch {
	case rep.leaseErr != nil:
		resp.Status, resp.Code = server.WireLeaseError(rep.leaseErr)
	case rep.unavail != "":
		resp.Status = wire.StatusUnavailable
		resp.Code = wireCode(rep.unavail)
		wait := rep.wait
		if wait <= 0 {
			wait = time.Millisecond
		}
		resp.RetryAfterMillis = wait.Milliseconds()
		if resp.RetryAfterMillis < 1 {
			resp.RetryAfterMillis = 1
		}
	default:
		switch body := rep.body.(type) {
		case GrantResponse:
			resp.Status = wire.StatusOK
			resp.Grants = append(resp.Grants, wireGrant(body))
		case server.ReleaseResponse:
			resp.Status = wire.StatusOK
		case server.ErrorResponse:
			resp.Status = wire.Status(rep.status)
			resp.Code = wireCode(body.Error)
		case EpochResponse:
			resp.Status = wire.Status(rep.status)
			resp.Code = wireCode(body.Error)
			resp.Epoch = body.Epoch
		default:
			resp.Status, resp.Code = wire.StatusInternal, wire.CodeInternal
		}
	}
}

// wireCheckEpoch fences a write whose frame epoch disagrees with the node's
// table, exactly as checkEpoch does for the HTTP header. Epoch 0 (unfenced)
// passes; a newer epoch additionally schedules a table refresh. The frame's
// request id is the binary protocol's trace id, logged on the fence so the
// rejection can be matched to the client that carried it.
func (n *Node) wireCheckEpoch(req *wire.Request, resp *wire.Response) bool {
	if req.Epoch == 0 {
		return true
	}
	cur := n.Epoch()
	if req.Epoch == cur {
		return true
	}
	if req.Epoch > cur {
		n.requestRefresh()
	}
	n.staleEpochRejects.Add(1)
	n.events.Emit(trace.Event{
		Type: trace.EvStaleEpoch, Level: trace.LevelDebug,
		Epoch: cur, Partition: -1, Cause: "frame_epoch", RID: wire.RIDString(req.ID),
		Detail: fmt.Sprintf("wire 412: request carried epoch %d, ours is %d", req.Epoch, cur),
	})
	resp.Status = wire.StatusStaleEpoch
	resp.Code = wire.CodeStaleEpoch
	resp.Epoch = cur
	return false
}

// ServeWire implements wire.Backend: the node's whole lease API over binary
// frames.
func (n *Node) ServeWire(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpPing:
		// OK; the epoch rides back in the header below.

	case wire.OpAcquire:
		if !n.wireCheckEpoch(req, resp) {
			return
		}
		replyToWire(n.acquireOp(n.ttlOf(req.TTLMillis), req.Span), resp)

	case wire.OpRenew:
		if !n.wireCheckEpoch(req, resp) {
			return
		}
		ref := req.Items[0]
		replyToWire(n.renewOp(server.RenewRequest{
			Name: int(ref.Name), Token: ref.Token, TTLMillis: req.TTLMillis,
		}, req.Span), resp)

	case wire.OpRelease:
		if !n.wireCheckEpoch(req, resp) {
			return
		}
		ref := req.Items[0]
		replyToWire(n.releaseOp(server.ReleaseRequest{Name: int(ref.Name), Token: ref.Token}, req.Span), resp)

	case wire.OpAcquireN:
		if !n.wireCheckEpoch(req, resp) {
			return
		}
		if n.cfg.Metrics != nil {
			n.cfg.Metrics.BatchOps.Inc()
		}
		n.acquireNWire(int(req.N), n.ttlOf(req.TTLMillis), resp)

	case wire.OpReleaseN:
		if !n.wireCheckEpoch(req, resp) {
			return
		}
		if n.cfg.Metrics != nil {
			n.cfg.Metrics.BatchOps.Inc()
		}
		n.releaseNWire(req.Items, resp)

	case wire.OpRenewSession:
		if !n.wireCheckEpoch(req, resp) {
			return
		}
		if n.cfg.Metrics != nil {
			n.cfg.Metrics.BatchOps.Inc()
		}
		n.renewSessionWire(req.Items, n.ttlOf(req.TTLMillis), resp)

	case wire.OpCollect:
		nodeBlob(resp, n.collectResponse())

	case wire.OpStats:
		nodeBlob(resp, n.statsResponse())

	case wire.OpLeases:
		start, limit := int(req.Start), int(req.Limit)
		if start < 0 {
			resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
			break
		}
		if limit <= 0 {
			limit = server.DefaultLeasesPageLimit
		}
		if limit > server.MaxLeasesPageLimit {
			limit = server.MaxLeasesPageLimit
		}
		nodeBlob(resp, n.leasesResponse(start, limit))

	case wire.OpMembers:
		nodeBlob(resp, n.Table())

	case wire.OpJoin:
		// The wire control plane is steward-direct: no HTTP-style proxying.
		// A non-steward answers 421 and the client tries the steward (its
		// identity rides in the members blob).
		var jr JoinRequest
		if err := json.Unmarshal(req.Blob, &jr); err != nil || jr.Addr == "" {
			resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
			break
		}
		n.controlToWire(resp, func() (int, any) { return n.admitJoin(jr) })

	case wire.OpDrain:
		var dr DrainRequest
		if err := json.Unmarshal(req.Blob, &dr); err != nil {
			resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
			break
		}
		n.controlToWire(resp, func() (int, any) { return n.applyDrain(dr) })

	case wire.OpRebalance:
		n.controlToWire(resp, func() (int, any) { return 200, n.rebalanceOnce("wire") })

	default:
		resp.Status, resp.Code = wire.StatusBadRequest, wire.CodeBadRequest
	}
	if resp.Epoch == 0 {
		resp.Epoch = n.Epoch()
	}
}

// nodeBlob JSON-encodes a read-opcode body into the response payload.
func nodeBlob(resp *wire.Response, body any) {
	buf, err := json.Marshal(body)
	if err != nil {
		resp.Status, resp.Code = wire.StatusInternal, wire.CodeInternal
		return
	}
	resp.Blob = append(resp.Blob[:0], buf...)
}

// controlToWire runs a steward-only membership operation and maps its
// HTTP-shaped (status, body) reply onto a wire frame. Non-stewards answer
// 421/not_owner — the wire control plane does not proxy; the client reads
// the steward's identity from an OpMembers blob and redials.
func (n *Node) controlToWire(resp *wire.Response, op func() (int, any)) {
	st, ok := n.Table().Steward()
	if !ok {
		resp.Status, resp.Code = wire.StatusUnavailable, wire.CodeNoPartitions
		resp.RetryAfterMillis = n.cfg.ProbeInterval.Milliseconds()
		return
	}
	if st.ID != n.cfg.NodeID {
		resp.Status, resp.Code = wire.StatusNotOwner, wire.CodeNotOwner
		return
	}
	status, body := op()
	if status/100 != 2 {
		resp.Status = wire.Status(status)
		if er, ok := body.(EpochResponse); ok {
			resp.Code = wireCode(er.Error)
		} else {
			resp.Code = wire.CodeInternal
		}
		return
	}
	nodeBlob(resp, body)
}

// acquireNWire grants up to want leases in one pass, filling across the
// node's open partitions round-robin: the cluster counterpart of the
// manager's AcquireN, under one table lock for the whole batch.
func (n *Node) acquireNWire(want int, ttl time.Duration, resp *wire.Response) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.ownedIDs) == 0 {
		replyToWire(reply{unavail: ErrCodeNoPartitions, wait: n.cfg.ProbeInterval}, resp)
		return
	}
	start := n.rr.Add(1)
	now := n.cfg.Clock()
	quarantineWait := time.Duration(-1)
	sawOpen := false
	var scratch []lease.Lease
	var hardErr error
	for i := 0; i < len(n.ownedIDs) && len(resp.Grants) < want; i++ {
		part := n.parts[n.ownedIDs[(start+uint64(i))%uint64(len(n.ownedIDs))]]
		if part.migrating {
			if quarantineWait < 0 || n.cfg.ProbeInterval < quarantineWait {
				quarantineWait = n.cfg.ProbeInterval
			}
			continue
		}
		if wait := part.quarantineUntil.Sub(now); wait > 0 {
			if quarantineWait < 0 || wait < quarantineWait {
				quarantineWait = wait
			}
			continue
		}
		sawOpen = true
		var err error
		scratch, err = part.mgr.AcquireN(want-len(resp.Grants), ttl, scratch[:0])
		for _, l := range scratch {
			resp.Grants = append(resp.Grants, wire.Grant{
				Name:              int64(part.id*n.table.Stride + l.Name),
				Token:             l.Token,
				DeadlineUnixMilli: l.Deadline.UnixMilli(),
				NodeID:            int32(n.cfg.NodeID),
				Partition:         int32(part.id),
				Epoch:             n.table.Epoch,
			})
		}
		if err != nil && !errors.Is(err, activity.ErrFull) && !errors.Is(err, lease.ErrClosed) {
			hardErr = err
		}
	}
	if len(resp.Grants) > 0 {
		resp.Status = wire.StatusOK
		return
	}
	switch {
	case hardErr != nil:
		replyToWire(reply{leaseErr: hardErr}, resp)
	case sawOpen:
		replyToWire(reply{unavail: server.ErrCodeFull, wait: n.cfg.Lease.TickInterval}, resp)
	default:
		replyToWire(reply{unavail: ErrCodeWarming, wait: quarantineWait}, resp)
	}
}

// releaseNWire frees every referenced lease under one table lock, reporting
// per-item outcomes.
func (n *Node) releaseNWire(items []wire.Ref, resp *wire.Response) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, ref := range items {
		it := wire.ItemResult{Status: wire.StatusOK}
		part, local, ok := n.resolveItemLocked(int(ref.Name), &it)
		if ok {
			if err := part.mgr.Release(local, ref.Token); err != nil {
				it.Status, it.Code = server.WireLeaseError(err)
			}
		}
		resp.Items = append(resp.Items, it)
	}
	resp.Status = wire.StatusOK
}

// resolveItemLocked resolves one batch item's partition, recording a 409/421
// outcome in it on failure; callers hold mu.
func (n *Node) resolveItemLocked(name int, it *wire.ItemResult) (*partition, int, bool) {
	p := n.table.PartitionOf(name)
	if p < 0 {
		it.Status, it.Code = wire.StatusConflict, wire.CodeNotLeased
		return nil, 0, false
	}
	part, owned := n.parts[p]
	if !owned || part.migrating {
		n.misroutes.Add(1)
		it.Status, it.Code = wire.StatusNotOwner, wire.CodeNotOwner
		return nil, 0, false
	}
	return part, name - p*n.table.Stride, true
}

// renewGroupPool recycles the per-partition grouping of renewSessionWire.
type renewGroup struct {
	part *partition
	refs []lease.Ref
	idx  []int
}

var renewGroupPool = sync.Pool{New: func() any { return &renewGroup{} }}

// renewSessionWire bulk-renews the referenced leases under one table lock,
// grouped per partition so each owned partition takes one RenewAll pass
// (one clock read, one group commit). Per-item outcomes are
// index-aligned with the request.
func (n *Node) renewSessionWire(items []wire.Ref, ttl time.Duration, resp *wire.Response) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	base := len(resp.Items)
	for range items {
		resp.Items = append(resp.Items, wire.ItemResult{})
	}
	out := resp.Items[base:]

	groups := make(map[int]*renewGroup, len(n.ownedIDs))
	for i, ref := range items {
		part, local, ok := n.resolveItemLocked(int(ref.Name), &out[i])
		if !ok {
			continue
		}
		g := groups[part.id]
		if g == nil {
			g = renewGroupPool.Get().(*renewGroup)
			g.part = part
			g.refs = g.refs[:0]
			g.idx = g.idx[:0]
			groups[part.id] = g
		}
		g.refs = append(g.refs, lease.Ref{Name: local, Token: ref.Token})
		g.idx = append(g.idx, i)
	}
	for _, g := range groups {
		outcomes, err := g.part.mgr.RenewAll(g.refs, ttl, nil)
		if err != nil {
			status, code := server.WireLeaseError(err)
			for _, i := range g.idx {
				out[i] = wire.ItemResult{Status: status, Code: code}
			}
		} else {
			for j, oc := range outcomes {
				it := wire.ItemResult{Status: wire.StatusOK}
				if oc.Err != nil {
					it.Status, it.Code = server.WireLeaseError(oc.Err)
				} else if !oc.Deadline.IsZero() {
					it.DeadlineUnixMilli = oc.Deadline.UnixMilli()
				}
				out[g.idx[j]] = it
			}
		}
		g.part = nil
		renewGroupPool.Put(g)
	}
	resp.Status = wire.StatusOK
}
