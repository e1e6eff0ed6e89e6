package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"hermit/internal/engine"
	"hermit/internal/partition"
	"hermit/internal/server/proto"
)

// isQuery reports whether an op kind is one of the three read kinds.
func isQuery(k engine.OpKind) bool {
	switch k {
	case engine.OpPoint, engine.OpRange, engine.OpRange2:
		return true
	}
	return false
}

// backend adapts the wire protocol's operation surface onto a DurableDB.
// It owns the two impedance mismatches the engine does not hide:
//
//   - One table abstraction for reads. DurableDB mutations auto-route by
//     logical name, but queries go through a partition.Table: a
//     partitioned table's scatter-gather wrapper, or a plain table's
//     one-partition view, which runs every query as a direct engine call.
//     The backend caches one wrapper per table and routes per request.
//
//   - RID lifetime. Queries return version RIDs; between the query and
//     the row fetch, version GC could reclaim them. Every query path here
//     holds a guard snapshot — registered before the query's own snapshot,
//     so its timestamp is no newer — across the fetch, which pins the GC
//     horizon below anything the query can see.
//
// Tenant namespaces are pure name mangling at this layer: tenant "acme"'s
// table "users" is the engine table "acme@users". '@' is reserved in
// client-supplied names so tenants cannot collide or escape, and '#' is
// reserved by the partitioning layer.
type backend struct {
	d       *engine.DurableDB
	workers int

	mu     sync.Mutex
	tables map[string]*partition.Table
}

func newBackend(d *engine.DurableDB, workers int) *backend {
	return &backend{d: d, workers: workers, tables: make(map[string]*partition.Table)}
}

// errReject wraps a proto error code so session code can map engine
// failures onto wire responses without string matching.
type errReject struct {
	code proto.ErrCode
	msg  string
}

func (e errReject) Error() string { return e.msg }

func reject(code proto.ErrCode, format string, args ...any) error {
	return errReject{code: code, msg: fmt.Sprintf(format, args...)}
}

// errorResponse maps an error — errReject or a raw engine error — onto a
// wire error response.
func errorResponse(err error) proto.Response {
	code := proto.CodeInternal
	var rej errReject
	switch {
	case errors.As(err, &rej):
		code = rej.code
	case errors.Is(err, engine.ErrWriteConflict):
		code = proto.CodeConflict
	case errors.Is(err, engine.ErrTxnAborted):
		code = proto.CodeAborted
	case errors.Is(err, engine.ErrTxnDone):
		code = proto.CodeTxnUnknown
	case errors.Is(err, engine.ErrNoSuchTable):
		code = proto.CodeNoTable
	case errors.Is(err, engine.ErrDupKey), errors.Is(err, engine.ErrDupTable):
		code = proto.CodeDupKey
	}
	msg := err.Error()
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return proto.Response{Type: proto.RespError, Code: code, Msg: msg}
}

// physical maps a client-visible table name into the tenant's namespace,
// rejecting names that could cross namespaces or collide with the
// partition layer's physical names.
func physical(tenant, table string) (string, error) {
	if table == "" || strings.ContainsAny(table, "@#") {
		return "", reject(proto.CodeBadRequest, "invalid table name %q", table)
	}
	if tenant == "" {
		return table, nil
	}
	return tenant + "@" + table, nil
}

// validTenant rejects tenant names that could escape the '@' mangling.
func validTenant(tenant string) error {
	if len(tenant) > 64 || strings.ContainsAny(tenant, "@#") {
		return reject(proto.CodeBadRequest, "invalid tenant name %q", tenant)
	}
	return nil
}

// resolve returns the cached partition.Table serving a table (a plain
// table is a one-partition view); it never returns a nil table without an
// error. name is already physical (tenant-mangled). The cache lives as
// long as the backend, and a database swap builds a fresh backend, so no
// wrapper outlives its tables.
func (b *backend) resolve(name string) (*partition.Table, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pt, ok := b.tables[name]; ok {
		return pt, nil
	}
	pt, err := partition.OpenDurable(b.d, name, partition.Options{Workers: b.workers})
	if err != nil {
		return nil, err
	}
	b.tables[name] = pt
	return pt, nil
}

// forget drops a cached wrapper (used when DDL changes a table's shape —
// currently only index creation, which the wrapper reflects lazily enough
// that a re-open is the simplest correctness story).
func (b *backend) forget(name string) {
	b.mu.Lock()
	delete(b.tables, name)
	b.mu.Unlock()
}

// engineOp converts a wire op into an engine.Op against physical table
// names. Only the six batchable kinds appear here (proto enforces that).
func engineOp(tenant string, r *proto.Request) (engine.Op, error) {
	name, err := physical(tenant, r.Table)
	if err != nil {
		return engine.Op{}, err
	}
	op := engine.Op{Table: name}
	switch r.Type {
	case proto.ReqPoint:
		op.Kind, op.Col, op.Lo, op.Hi = engine.OpPoint, int(r.Col), r.Lo, r.Lo
	case proto.ReqRange:
		op.Kind, op.Col, op.Lo, op.Hi = engine.OpRange, int(r.Col), r.Lo, r.Hi
	case proto.ReqRange2:
		op.Kind, op.Col, op.Lo, op.Hi = engine.OpRange2, int(r.Col), r.Lo, r.Hi
		op.BCol, op.BLo, op.BHi = int(r.BCol), r.BLo, r.BHi
	case proto.ReqInsert:
		op.Kind, op.Row = engine.OpInsert, r.Row
	case proto.ReqUpdate:
		op.Kind, op.PK, op.Col, op.Value = engine.OpUpdate, r.PK, int(r.Col), r.Value
	case proto.ReqDelete:
		op.Kind, op.PK = engine.OpDelete, r.PK
	default:
		return engine.Op{}, reject(proto.CodeBadRequest, "op type %d not batchable", r.Type)
	}
	return op, nil
}

// fetch materialises query-result rows.
func fetch(pt *partition.Table, rids []partition.RID) ([][]float64, error) {
	out := make([][]float64, 0, len(rids))
	for _, rid := range rids {
		row, err := pt.FetchRow(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// opResponse renders one executed op as its wire response, fetching a
// query's rows from pt.
func opResponse(pt *partition.Table, kind engine.OpKind, rids []partition.RID, found bool, err error) proto.Response {
	var rows [][]float64
	if err == nil && isQuery(kind) {
		rows, err = fetch(pt, rids)
	}
	switch {
	case err != nil:
		return errorResponse(err)
	case isQuery(kind):
		return proto.Response{Type: proto.RespRows, Rows: rows}
	case kind == engine.OpDelete:
		return proto.Response{Type: proto.RespFound, Found: found}
	default:
		return proto.Response{Type: proto.RespOK}
	}
}

// runReads executes a coalesced group of auto-commit read requests — the
// session's pipelining unit. The ops on each table funnel into that
// table's ExecuteBatch (shared snapshot, worker pool). A guard snapshot
// taken before those calls covers the row fetches. Responses align
// positionally with reqs.
func (b *backend) runReads(tenant string, reqs []proto.Request) []proto.Response {
	out := make([]proto.Response, len(reqs))

	guard := b.d.Snapshot()
	defer guard.Release()

	ops := make(map[*partition.Table][]engine.Op)
	idx := make(map[*partition.Table][]int)
	for i := range reqs {
		op, err := engineOp(tenant, &reqs[i])
		if err != nil {
			out[i] = errorResponse(err)
			continue
		}
		pt, err := b.resolve(op.Table)
		if err != nil {
			out[i] = errorResponse(err)
			continue
		}
		ops[pt], idx[pt] = append(ops[pt], op), append(idx[pt], i)
	}
	for pt, tops := range ops {
		for k, res := range pt.ExecuteBatch(tops, b.workers) {
			out[idx[pt][k]] = opResponse(pt, tops[k].Kind, res.RIDs, false, res.Err)
		}
	}
	return out
}

// runBatch executes a wire batch atomically. A batch whose ops all target
// one table goes through that table's ExecuteBatch. A batch spanning
// tables goes through DurableDB.ExecuteBatch, which resolves only
// physical names for reads, so such a batch may not query a partitioned
// table and is refused if it does — mutations on partitioned tables
// inside it are fine, since the transaction layer auto-routes them.
func (b *backend) runBatch(tenant string, r *proto.Request) proto.Response {
	if len(r.Ops) == 0 {
		return proto.Response{Type: proto.RespBatch}
	}
	ops := make([]engine.Op, len(r.Ops))
	single := true
	for i := range r.Ops {
		op, err := engineOp(tenant, &r.Ops[i])
		if err != nil {
			return errorResponse(err)
		}
		ops[i] = op
		single = single && op.Table == ops[0].Table
	}
	// tables[i] is the table op i reads or, in a single-table batch, runs
	// on; a multi-table batch's mutations route by name in the engine.
	tables := make([]*partition.Table, len(ops))
	for i, op := range ops {
		if !single && !isQuery(op.Kind) {
			continue
		}
		pt, err := b.resolve(op.Table)
		if err != nil {
			return errorResponse(err)
		}
		if n, _ := b.d.Partitions(op.Table); !single && n > 0 {
			return errorResponse(reject(proto.CodeBadRequest,
				"query on partitioned table %q in a multi-table batch", op.Table))
		}
		tables[i] = pt
	}

	guard := b.d.Snapshot()
	defer guard.Release()

	resp := proto.Response{Type: proto.RespBatch, Results: make([]proto.Response, len(ops))}
	if single {
		for i, res := range tables[0].ExecuteBatch(ops, b.workers) {
			resp.Results[i] = opResponse(tables[0], ops[i].Kind, res.RIDs, res.Found, res.Err)
		}
		return resp
	}
	for i, res := range b.d.ExecuteBatch(ops, b.workers) {
		rids := make([]partition.RID, len(res.RIDs)) // a plain table's only partition
		for k, rid := range res.RIDs {
			rids[k].RID = rid
		}
		resp.Results[i] = opResponse(tables[i], ops[i].Kind, rids, res.Found, res.Err)
	}
	return resp
}

// runMutation executes one auto-commit mutation request.
func (b *backend) runMutation(tenant string, r *proto.Request) proto.Response {
	name, err := physical(tenant, r.Table)
	if err != nil {
		return errorResponse(err)
	}
	switch r.Type {
	case proto.ReqInsert:
		if _, err := b.d.Insert(name, r.Row); err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespOK}
	case proto.ReqUpdate:
		if err := b.d.UpdateColumn(name, r.PK, int(r.Col), r.Value); err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespOK}
	case proto.ReqDelete:
		found, err := b.d.Delete(name, r.PK)
		if err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespFound, Found: found}
	}
	return errorResponse(reject(proto.CodeBadRequest, "type %d is not a mutation", r.Type))
}

// runTxnQuery executes a read inside an open transaction, at the
// transaction's snapshot.
func (b *backend) runTxnQuery(tenant string, tx *engine.DurableTxn, r *proto.Request) proto.Response {
	op, err := engineOp(tenant, r)
	if err != nil {
		return errorResponse(err)
	}
	pt, err := b.resolve(op.Table)
	if err != nil {
		return errorResponse(err)
	}
	snap := tx.Snapshot()
	if snap == nil {
		return errorResponse(engine.ErrTxnDone)
	}
	var rids []partition.RID
	if op.Kind == engine.OpRange2 {
		rids, _, err = pt.RangeQuery2At(snap, op.Col, op.Lo, op.Hi, op.BCol, op.BLo, op.BHi)
	} else {
		rids, _, err = pt.RangeQueryAt(snap, op.Col, op.Lo, op.Hi)
	}
	return opResponse(pt, op.Kind, rids, false, err)
}

// runTxnMutation buffers one mutation into an open transaction.
func runTxnMutation(tenant string, tx *engine.DurableTxn, r *proto.Request) proto.Response {
	name, err := physical(tenant, r.Table)
	if err != nil {
		return errorResponse(err)
	}
	switch r.Type {
	case proto.ReqInsert:
		if err := tx.Insert(name, r.Row); err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespOK}
	case proto.ReqUpdate:
		if err := tx.Update(name, r.PK, int(r.Col), r.Value); err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespOK}
	case proto.ReqDelete:
		found, err := tx.Delete(name, r.PK)
		if err != nil {
			return errorResponse(err)
		}
		return proto.Response{Type: proto.RespFound, Found: found}
	}
	return errorResponse(reject(proto.CodeBadRequest, "type %d is not a mutation", r.Type))
}

// runDDL executes a create-table or create-index request.
func (b *backend) runDDL(tenant string, r *proto.Request) proto.Response {
	name, err := physical(tenant, r.Table)
	if err != nil {
		return errorResponse(err)
	}
	switch r.Type {
	case proto.ReqCreateTable:
		if len(r.Cols) == 0 || int(r.PKCol) >= len(r.Cols) {
			return errorResponse(reject(proto.CodeBadRequest,
				"create table %q: %d columns, pk %d", r.Table, len(r.Cols), r.PKCol))
		}
		if r.Parts > 0 {
			err = b.d.CreatePartitionedTable(name, r.Cols, int(r.PKCol), int(r.Parts))
		} else {
			_, err = b.d.CreateTable(name, r.Cols, int(r.PKCol))
		}
	case proto.ReqCreateIndex:
		def := engine.IndexDef{Col: int(r.Col)}
		switch r.Kind {
		case proto.IndexBTree:
			def.Kind = "btree"
		case proto.IndexHermit:
			def.Kind = "hermit"
			def.Host = int(r.Host)
		}
		if err = b.d.CreateIndex(name, def); err == nil {
			b.forget(name)
		}
	default:
		return errorResponse(reject(proto.CodeBadRequest, "type %d is not DDL", r.Type))
	}
	if err != nil {
		return errorResponse(err)
	}
	return proto.Response{Type: proto.RespOK}
}
