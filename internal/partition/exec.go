package partition

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hermit/internal/engine"
)

// OpResult is the outcome of one engine.Op executed against a partitioned
// table, at the batch position of its op. It mirrors engine.OpResult with
// partition-qualified identifiers and fan-out stats.
type OpResult struct {
	// RIDs holds the merged, ordered matches of a query op.
	RIDs []RID
	// Stats describes a query op's execution (fan-out, merge counts).
	Stats Stats
	// RID is the location of an inserted row (zero until the batch's
	// transaction commits; absent on durable tables, where versions are
	// addressed through queries).
	RID RID
	// Found reports whether an OpDelete removed a row.
	Found bool
	// Err is the per-operation failure, if any. In a batch with mutations
	// a failing mutation aborts the whole transaction: the failing op
	// carries its error and every other mutation engine.ErrTxnAborted.
	Err error
}

// ExecuteBatch runs a batch of operations with the engine executor's
// atomicity contract, across partitions: a batch containing mutations
// executes as one cross-partition snapshot-isolation transaction (queries
// read the batch-start snapshot; mutations route to their hash partitions,
// buffer, and commit with a single commit-clock advance — so no
// concurrent reader, on any partition, can observe the batch partially;
// on durable tables the group is WAL-logged under one transaction id). A
// read-only batch drains across a pool of workers goroutines (<= 0
// selects GOMAXPROCS) sharing one snapshot; range legs still scatter
// through the table's bounded pool, so total scan parallelism stays
// capped at Options.Workers. Results align positionally with ops;
// Op.Table is ignored.
func (t *Table) ExecuteBatch(ops []engine.Op, workers int) []OpResult {
	if hasMutations(ops) {
		return t.executeAtomic(ops)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ops) {
		workers = len(ops)
	}
	snap := t.Snapshot()
	defer snap.Release()
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
				results[i] = t.queryOpAt(snap, ops[i])
			}
		}()
	}
	wg.Wait()
	return results
}

func hasMutations(ops []engine.Op) bool {
	for _, op := range ops {
		switch op.Kind {
		case engine.OpRange, engine.OpPoint, engine.OpRange2:
		default:
			return true
		}
	}
	return false
}

// queryOpAt dispatches one read-only op at the snapshot.
func (t *Table) queryOpAt(snap *engine.Snapshot, op engine.Op) OpResult {
	var r OpResult
	switch op.Kind {
	case engine.OpRange:
		r.RIDs, r.Stats, r.Err = t.RangeQueryAt(snap, op.Col, op.Lo, op.Hi)
	case engine.OpPoint:
		r.RIDs, r.Stats, r.Err = t.RangeQueryAt(snap, op.Col, op.Lo, op.Lo)
	case engine.OpRange2:
		r.RIDs, r.Stats, r.Err = t.RangeQuery2At(snap, op.Col, op.Lo, op.Hi, op.BCol, op.BLo, op.BHi)
	default:
		r.Err = fmt.Errorf("partition: unknown op kind %d", op.Kind)
	}
	return r
}

// executeAtomic runs a batch with mutations as one cross-partition
// transaction, mirroring the engine executor's contract.
func (t *Table) executeAtomic(ops []engine.Op) []OpResult {
	results := make([]OpResult, len(ops))
	x := t.mut.begin()
	defer x.rollback()
	var mutIdx []int
	failed := -1
	for i, op := range ops {
		switch op.Kind {
		case engine.OpRange, engine.OpPoint, engine.OpRange2:
			results[i] = t.queryOpAt(x.snapshot(), op)
			continue
		}
		mutIdx = append(mutIdx, i)
		switch op.Kind {
		case engine.OpInsert:
			if len(op.Row) != len(t.cols) {
				results[i].Err = fmt.Errorf("partition: insert row width %d, schema %d", len(op.Row), len(t.cols))
			} else {
				results[i].Err = x.insert(t.owner(op.Row[t.pkCol]), op.Row)
			}
		case engine.OpDelete:
			results[i].Found, results[i].Err = x.remove(t.owner(op.PK), op.PK)
		case engine.OpUpdate:
			results[i].Err = x.update(t.owner(op.PK), op.PK, op.Col, op.Value)
		default:
			results[i].Err = fmt.Errorf("partition: unknown op kind %d", op.Kind)
		}
		if results[i].Err != nil {
			failed = i
			break
		}
	}
	if failed >= 0 {
		for i := failed + 1; i < len(ops); i++ {
			switch ops[i].Kind {
			case engine.OpRange, engine.OpPoint, engine.OpRange2:
				results[i] = t.queryOpAt(x.snapshot(), ops[i])
			}
		}
		for i, op := range ops {
			switch op.Kind {
			case engine.OpRange, engine.OpPoint, engine.OpRange2:
			default:
				if i != failed && results[i].Err == nil {
					results[i].Err = engine.ErrTxnAborted
				}
			}
		}
		return results
	}
	if err := x.commit(); err != nil {
		for _, i := range mutIdx {
			results[i].Err = err
		}
	}
	return results
}
