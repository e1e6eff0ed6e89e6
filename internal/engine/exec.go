package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hermit/internal/storage"
)

// This file is the batched executor. Since the MVCC rework a batch that
// contains mutations is one atomic snapshot-isolation transaction: queries
// in the batch read the snapshot taken when the batch starts, mutations
// buffer into the transaction and commit together — all of them or none.
// Read-only batches keep the PR-1 behaviour of draining across a worker
// pool, now with every worker sharing one snapshot so the whole batch
// observes a single consistent state.

// ErrTxnAborted marks the other mutations of an atomic batch whose
// transaction aborted because one mutation failed (that op carries the
// specific error) or because the commit hit a write-write conflict.
var ErrTxnAborted = errors.New("engine: atomic batch aborted; no mutation was applied")

// OpKind selects what an Op does.
type OpKind int

const (
	// OpRange is a single-column range query (Col, Lo, Hi).
	OpRange OpKind = iota
	// OpPoint is a single-column equality query (Col, Lo).
	OpPoint
	// OpRange2 is a conjunctive two-column range query
	// (Col, Lo, Hi) AND (BCol, BLo, BHi).
	OpRange2
	// OpInsert appends Row to the table.
	OpInsert
	// OpDelete removes the row with primary key PK.
	OpDelete
	// OpUpdate sets column Col of the row with primary key PK to Value.
	OpUpdate
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRange:
		return "range"
	case OpPoint:
		return "point"
	case OpRange2:
		return "range2"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return "update"
	}
}

// isMutation reports whether the op kind writes (unknown kinds count as
// mutations so a malformed batch aborts rather than half-applies).
func (k OpKind) isMutation() bool {
	switch k {
	case OpRange, OpPoint, OpRange2:
		return false
	default:
		return true
	}
}

// Op is one operation in a batch.
type Op struct {
	// Table names the target table (DB.ExecuteBatch only; Table-level
	// batches ignore it).
	Table string
	Kind  OpKind

	// Query operands.
	Col    int
	Lo, Hi float64
	// Second predicate for OpRange2.
	BCol     int
	BLo, BHi float64

	// Write operands.
	Row   []float64 // OpInsert
	PK    float64   // OpDelete, OpUpdate
	Value float64   // OpUpdate
}

// OpResult is the outcome of one Op, at the batch position of its Op.
type OpResult struct {
	// RIDs holds the matching tuples of a query.
	RIDs []storage.RID
	// Stats describes a query's execution.
	Stats QueryStats
	// RID is the location of an inserted row's committed version.
	RID storage.RID
	// Found reports whether an OpDelete removed a row.
	Found bool
	// Err is the per-operation failure, if any. In a batch with mutations
	// a failing mutation aborts the whole transaction: the failing op
	// carries its error and every other mutation carries ErrTxnAborted.
	Err error
}

// runOps drains ops[next..] across workers goroutines, executing each Op
// through exec and writing results in order.
func runOps(ops []Op, workers int, exec func(Op) OpResult) []OpResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ops) {
		workers = len(ops)
	}
	results := make([]OpResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				results[i] = exec(ops[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// abortBatch finishes an aborted atomic batch: queries after the failing
// op still execute (against the batch snapshot, via query), and every
// sibling mutation — attempted or not — is marked ErrTxnAborted, while
// the failing op keeps its specific error.
func abortBatch(ops []Op, results []OpResult, failed int, query func(Op) OpResult) {
	for i := failed + 1; i < len(ops); i++ {
		if !ops[i].Kind.isMutation() {
			results[i] = query(ops[i])
		}
	}
	for i, op := range ops {
		if op.Kind.isMutation() && i != failed && results[i].Err == nil {
			results[i].Err = ErrTxnAborted
		}
	}
}

// hasMutations reports whether any op in the batch writes.
func hasMutations(ops []Op) bool {
	for _, op := range ops {
		if op.Kind.isMutation() {
			return true
		}
	}
	return false
}

// queryOpAt executes one read-only op against the snapshot.
func (t *Table) queryOpAt(snap *Snapshot, op Op) OpResult {
	var r OpResult
	switch op.Kind {
	case OpRange:
		r.RIDs, r.Stats, r.Err = t.RangeQueryAt(snap, op.Col, op.Lo, op.Hi)
	case OpPoint:
		r.RIDs, r.Stats, r.Err = t.RangeQueryAt(snap, op.Col, op.Lo, op.Lo)
	case OpRange2:
		r.RIDs, r.Stats, r.Err = t.RangeQuery2At(snap, op.Col, op.Lo, op.Hi, op.BCol, op.BLo, op.BHi)
	default:
		r.Err = fmt.Errorf("engine: unknown op kind %d", op.Kind)
	}
	return r
}

// batchTxn is the transaction an atomic batch runs in: a *Txn over
// in-memory tables, or a *DurableTxn, which also WAL-logs the group.
type batchTxn interface {
	Snapshot() *Snapshot
	Rollback()
	// mutate buffers one mutation op, resolving its table with resolve (a
	// *DurableTxn routes by op.Table itself). For an insert it returns the
	// table the row landed in, so the committed RID can be reported.
	mutate(op Op, resolve func(Op) (*Table, error)) (inserted *Table, found bool, err error)
	// commitBatch commits and reports where the writes landed.
	commitBatch() (CommitResult, error)
}

// mutate implements batchTxn.
func (x *Txn) mutate(op Op, resolve func(Op) (*Table, error)) (*Table, bool, error) {
	tb, err := resolve(op)
	if err != nil {
		return nil, false, err
	}
	switch op.Kind {
	case OpInsert:
		if err := x.Insert(tb, op.Row); err != nil {
			return nil, false, err
		}
		return tb, false, nil
	case OpDelete:
		found, err := x.Delete(tb, op.PK)
		return nil, found, err
	case OpUpdate:
		return nil, false, x.Update(tb, op.PK, op.Col, op.Value)
	}
	return nil, false, fmt.Errorf("engine: unknown op kind %d", op.Kind)
}

// commitBatch implements batchTxn.
func (x *Txn) commitBatch() (CommitResult, error) { return x.Commit() }

// executeAtomic runs a batch containing mutations as the transaction x.
// resolve maps an op to its table. Queries read the transaction's
// snapshot; mutations buffer and commit together. Any mutation failure —
// including an unresolvable table or a commit conflict — aborts the whole
// transaction, leaving every mutation unapplied.
func executeAtomic(x batchTxn, ops []Op, resolve func(Op) (*Table, error)) []OpResult {
	results := make([]OpResult, len(ops))
	defer x.Rollback()
	query := func(op Op) OpResult {
		tb, err := resolve(op)
		if err != nil {
			return OpResult{Err: err}
		}
		return tb.queryOpAt(x.Snapshot(), op)
	}
	type ins struct {
		i  int
		t  *Table
		pk float64
	}
	var (
		inserts []ins
		mutIdx  []int
		failed  = -1
	)
	for i, op := range ops {
		if !op.Kind.isMutation() {
			results[i] = query(op)
			continue
		}
		mutIdx = append(mutIdx, i)
		var tb *Table
		tb, results[i].Found, results[i].Err = x.mutate(op, resolve)
		if results[i].Err != nil {
			failed = i
			break
		}
		if tb != nil {
			inserts = append(inserts, ins{i: i, t: tb, pk: op.Row[tb.pkCol]})
		}
	}
	if failed >= 0 {
		abortBatch(ops, results, failed, query)
		return results
	}
	res, err := x.commitBatch()
	if err != nil {
		for _, i := range mutIdx {
			results[i].Err = err
		}
		return results
	}
	for _, in := range inserts {
		results[in.i].RID = res.RIDs[in.t][in.pk]
	}
	return results
}

// ExecuteBatch runs a batch of operations across tables. A batch with any
// mutation executes as one atomic snapshot-isolation transaction: queries
// read the batch-start snapshot, mutations apply all-or-nothing (a failed
// mutation or a write-write conflict aborts every mutation — see
// OpResult.Err), and workers is ignored for the transactional part. A
// read-only batch drains across a pool of workers goroutines (<= 0 selects
// GOMAXPROCS) sharing one snapshot. Results are positionally aligned with
// ops.
func (db *DB) ExecuteBatch(ops []Op, workers int) []OpResult {
	resolve := func(op Op) (*Table, error) { return db.Table(op.Table) }
	if hasMutations(ops) {
		return executeAtomic(db.Begin(), ops, resolve)
	}
	snap := db.Snapshot()
	defer snap.Release()
	return runOps(ops, workers, func(op Op) OpResult {
		tb, err := resolve(op)
		if err != nil {
			return OpResult{Err: err}
		}
		return tb.queryOpAt(snap, op)
	})
}

// ExecuteBatch runs a batch of operations against this table; Op.Table is
// ignored. See DB.ExecuteBatch for the atomicity contract.
func (t *Table) ExecuteBatch(ops []Op, workers int) []OpResult {
	resolve := func(Op) (*Table, error) { return t, nil }
	if hasMutations(ops) {
		return executeAtomic(BeginTxn(t.clock), ops, resolve)
	}
	snap := t.clock.Snapshot()
	defer snap.Release()
	return runOps(ops, workers, func(op Op) OpResult { return t.queryOpAt(snap, op) })
}
