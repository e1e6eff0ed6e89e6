package server

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"hermit/internal/client"
	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/server/proto"
	"hermit/internal/trstree"
)

// startServer opens a DurableDB in a temp dir, serves it on a loopback
// port, and tears both down with the test.
func startServer(t *testing.T, opts Options) (*Server, *engine.DurableDB) {
	t.Helper()
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := New(d, opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, d
}

func dial(t *testing.T, srv *Server, opts client.Options) *client.Conn {
	t.Helper()
	c, err := client.Dial(srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFullOpSurfaceRoundTrip drives every wire operation — DDL, point,
// range, range2, insert, update, delete, atomic batch, pipeline, txn —
// through a loopback client against both a plain and a partitioned table.
func TestFullOpSurfaceRoundTrip(t *testing.T) {
	srv, _ := startServer(t, Options{})
	c := dial(t, srv, client.Options{})

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("plain", []string{"id", "x", "y"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("parted", []string{"id", "x"}, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBTreeIndex("plain", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHermitIndex("plain", 2, 1); err != nil {
		t.Fatal(err)
	}

	for _, table := range []string{"plain", "parted"} {
		width := 3
		if table == "parted" {
			width = 2
		}
		for i := 0; i < 50; i++ {
			row := []float64{float64(i), float64(i * 2), float64(i * 3)}[:width]
			if err := c.Insert(table, row); err != nil {
				t.Fatalf("%s insert %d: %v", table, i, err)
			}
		}
		// Point on the pk column.
		rows, err := c.Point(table, 0, 7)
		if err != nil {
			t.Fatalf("%s point: %v", table, err)
		}
		if len(rows) != 1 || rows[0][1] != 14 {
			t.Fatalf("%s point: got %v", table, rows)
		}
		// Range over the secondary column.
		rows, err = c.Range(table, 1, 10, 20)
		if err != nil {
			t.Fatalf("%s range: %v", table, err)
		}
		if len(rows) != 6 { // x = 10,12,...,20
			t.Fatalf("%s range: %d rows, want 6: %v", table, len(rows), rows)
		}
		// Update + verify, delete + verify.
		if err := c.Update(table, 7, 1, 1000); err != nil {
			t.Fatalf("%s update: %v", table, err)
		}
		rows, err = c.Point(table, 0, 7)
		if err != nil || len(rows) != 1 || rows[0][1] != 1000 {
			t.Fatalf("%s post-update point: rows=%v err=%v", table, rows, err)
		}
		found, err := c.Delete(table, 7)
		if err != nil || !found {
			t.Fatalf("%s delete: found=%v err=%v", table, found, err)
		}
		found, err = c.Delete(table, 7)
		if err != nil || found {
			t.Fatalf("%s double delete: found=%v err=%v", table, found, err)
		}
		if err := c.Insert(table, []float64{7, 7, 7}[:width]); err != nil {
			t.Fatalf("%s reinsert: %v", table, err)
		}
	}

	// Range2 (plain table only: conjunctive two-column predicate).
	rows, err := c.Range2("plain", 1, 0, 40, 2, 0, 30)
	if err != nil {
		t.Fatalf("range2: %v", err)
	}
	for _, r := range rows {
		if r[1] < 0 || r[1] > 40 || r[2] < 0 || r[2] > 30 {
			t.Fatalf("range2 row outside predicate: %v", r)
		}
	}

	// Atomic batch: all-or-nothing on a duplicate-key failure.
	res, err := c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "plain", Row: []float64{500, 0, 0}},
		{Kind: client.OpInsert, Table: "plain", Row: []float64{3, 0, 0}}, // dup pk
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if res[0].Err == nil || !errors.Is(res[0].Err, client.ErrAborted) {
		t.Fatalf("batch result 0: want ErrAborted, got %v", res[0].Err)
	}
	if res[1].Err == nil || errors.Is(res[1].Err, client.ErrAborted) {
		t.Fatalf("batch result 1 should carry its own error, got %v", res[1].Err)
	}
	if rows, err := c.Point("plain", 0, 500); err != nil || len(rows) != 0 {
		t.Fatalf("aborted batch leaked row 500: rows=%v err=%v", rows, err)
	}

	// Successful mixed batch, including a read at the batch snapshot.
	res, err = c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "plain", Row: []float64{600, 1, 1}},
		{Kind: client.OpDelete, Table: "plain", PK: 5},
		{Kind: client.OpUpdate, Table: "plain", PK: 6, Col: 2, Value: -1},
		{Kind: client.OpRange, Table: "plain", Col: 0, Lo: 0, Hi: 3},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, r := range res[:3] {
		if r.Err != nil {
			t.Fatalf("batch op %d: %v", i, r.Err)
		}
	}
	if !res[1].Found {
		t.Fatal("batch delete did not find row 5")
	}
	if len(res[3].Rows) != 4 {
		t.Fatalf("batch range: %d rows, want 4", len(res[3].Rows))
	}

	// Pipeline: a mixed burst, responses in order.
	p := c.Pipeline()
	for i := 0; i < 30; i++ {
		p.Point("plain", 0, float64(i%10))
	}
	p.Insert("plain", []float64{700, 0, 0})
	p.Point("plain", 0, 700)
	results, err := p.Flush()
	if err != nil {
		t.Fatalf("pipeline flush: %v", err)
	}
	if len(results) != 32 {
		t.Fatalf("pipeline: %d results, want 32", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("pipeline result %d: %v", i, r.Err)
		}
	}
	if len(results[31].Rows) != 1 || results[31].Rows[0][0] != 700 {
		t.Fatalf("pipelined insert not visible to later pipelined read: %v", results[31].Rows)
	}

	// Transactions: snapshot isolation + commit visibility.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("plain", []float64{800, 8, 8}); err != nil {
		t.Fatal(err)
	}
	if rows, err := tx.Point("plain", 0, 800); err != nil || len(rows) != 0 {
		// Buffered writes are invisible until commit (engine contract).
		t.Fatalf("txn read-own-write: rows=%v err=%v (buffered writes must be invisible)", rows, err)
	}
	if rows, err := c.Point("plain", 0, 800); err != nil || len(rows) != 0 {
		t.Fatalf("uncommitted insert visible outside txn: %v %v", rows, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows, err := c.Point("plain", 0, 800); err != nil || len(rows) != 1 {
		t.Fatalf("committed insert not visible: rows=%v err=%v", rows, err)
	}

	// Write-write conflict: first committer wins.
	c2 := dial(t, srv, client.Options{})
	tx1, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Update("plain", 800, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update("plain", 800, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("second committer: want ErrConflict, got %v", err)
	}

	// Rollback discards.
	tx, err = c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("plain", []float64{900, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if rows, _ := c.Point("plain", 0, 900); len(rows) != 0 {
		t.Fatalf("rolled-back insert visible: %v", rows)
	}

	// Unknown txn id.
	if err := tx.Commit(); !errors.Is(err, client.ErrTxnUnknown) {
		t.Fatalf("commit after rollback: want ErrTxnUnknown, got %v", err)
	}
}

// TestSessionTxnLeakOnAbruptDisconnect opens a transaction (which pins a
// snapshot at its begin timestamp), kills the connection without commit
// or rollback, and asserts the server's session teardown releases the
// snapshot: the clock's GC horizon must advance past the orphaned
// transaction's timestamp.
func TestSessionTxnLeakOnAbruptDisconnect(t *testing.T) {
	srv, d := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []float64{1, 1}); err != nil {
		t.Fatal(err)
	}

	clk := d.Clock()
	victim := dial(t, srv, client.Options{})
	if _, err := victim.Begin(); err != nil {
		t.Fatal(err)
	}
	pinned := clk.OldestActive()

	// Commit a few more transactions so the clock moves past the pin.
	for i := 2; i < 6; i++ {
		if err := c.Insert("t", []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := clk.OldestActive(); got != pinned {
		t.Fatalf("open wire txn does not pin the GC horizon: %d, want %d", got, pinned)
	}

	// Abrupt disconnect: no rollback, no commit, just a dead socket.
	victim.Close()

	deadline := time.Now().Add(5 * time.Second)
	for clk.OldestActive() <= pinned {
		if time.Now().After(deadline) {
			t.Fatalf("GC horizon still pinned at %d after disconnect", clk.OldestActive())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if open := srv.Stats().TxnsOpen; open != 0 {
		t.Fatalf("%d wire txns still open after disconnect", open)
	}
}

// TestAdmissionControlBackpressure floods a tiny-MaxInflight server with
// a pipelined burst and asserts overload rejections are real, positional,
// and non-fatal: every request gets a response, rejected ones carry
// CodeOverloaded, and the session keeps working afterwards.
func TestAdmissionControlBackpressure(t *testing.T) {
	srv, _ := startServer(t, Options{MaxInflight: 2, QueueDepth: 512})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Insert("t", []float64{float64(i), float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	const burst = 400
	p := c.Pipeline()
	for i := 0; i < burst; i++ {
		p.Range("t", 1, 0, 20)
	}
	results, err := p.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	rejected := 0
	for _, r := range results {
		if r.Err != nil {
			if !errors.Is(r.Err, client.ErrOverloaded) {
				t.Fatalf("non-overload error in burst: %v", r.Err)
			}
			rejected++
		}
	}
	if got := srv.Stats().Rejected; got != int64(rejected) {
		t.Fatalf("stats.Rejected=%d, client saw %d", got, rejected)
	}
	if rejected == 0 {
		// With MaxInflight 2 and a 400-deep burst arriving faster than
		// single-CPU execution drains it, shedding is effectively certain;
		// if the race somehow admits everything, the test is inconclusive
		// rather than wrong.
		t.Skip("burst fully admitted; backpressure not exercised on this run")
	}
	// The session survives shedding.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after burst: %v", err)
	}
}

// TestTenantNamespacesAndQuota verifies namespace isolation (same table
// name, different tenants, different data; '@' rejected in table names)
// and the per-tenant op quota.
func TestTenantNamespacesAndQuota(t *testing.T) {
	srv, _ := startServer(t, Options{TenantOps: 40})
	alice := dial(t, srv, client.Options{Tenant: "alice"})
	bob := dial(t, srv, client.Options{Tenant: "bob"})

	for who, c := range map[string]*client.Conn{"alice": alice, "bob": bob} {
		if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
			t.Fatalf("%s create: %v", who, err)
		}
	}
	if err := alice.Insert("t", []float64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if err := bob.Insert("t", []float64{1, 20}); err != nil {
		t.Fatal(err)
	}
	rows, err := alice.Point("t", 0, 1)
	if err != nil || len(rows) != 1 || rows[0][1] != 10 {
		t.Fatalf("alice sees %v (err %v), want her own row", rows, err)
	}
	rows, err = bob.Point("t", 0, 1)
	if err != nil || len(rows) != 1 || rows[0][1] != 20 {
		t.Fatalf("bob sees %v (err %v), want his own row", rows, err)
	}
	if err := alice.Insert("evil@t", []float64{9, 9}); err == nil {
		t.Fatal("'@' accepted in a client table name")
	}
	if err := alice.Insert("t#0", []float64{9, 9}); err == nil {
		t.Fatal("'#' accepted in a client table name")
	}

	// Exhaust alice's quota; bob must be unaffected.
	var quotaErr error
	for i := 0; i < 60 && quotaErr == nil; i++ {
		_, quotaErr = alice.Point("t", 0, 1)
	}
	if !errors.Is(quotaErr, client.ErrQuota) {
		t.Fatalf("alice never hit her quota: %v", quotaErr)
	}
	if _, err := bob.Point("t", 0, 1); err != nil {
		t.Fatalf("bob collateral damage from alice's quota: %v", err)
	}
	if srv.Stats().QuotaRejected == 0 {
		t.Fatal("QuotaRejected counter untouched")
	}
}

// TestGracefulDrain verifies Close lets queued pipelined work finish and
// that open transactions are rolled back (snapshots released) rather than
// leaked.
func TestGracefulDrain(t *testing.T) {
	srv, d := startServer(t, Options{DrainTimeout: 3 * time.Second})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("t", []string{"id", "x"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Leave a transaction open across the drain.
	if _, err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	before := d.Clock().OldestActive()

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if open := srv.Stats().TxnsOpen; open != 0 {
		t.Fatalf("%d txns open after drain", open)
	}
	if got := d.Clock().OldestActive(); got < before {
		t.Fatalf("GC horizon regressed across drain: %d < %d", got, before)
	}
	// New connections are refused.
	if _, err := client.Dial(srv.Addr().String(), client.Options{}); err == nil {
		t.Fatal("dial succeeded after Close")
	}
	// Closing twice is safe.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedFrameEndsSessionCleanly writes garbage bytes and asserts
// the server drops the connection without wedging the listener.
func TestMalformedFrameEndsSessionCleanly(t *testing.T) {
	srv, _ := startServer(t, Options{})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A frame with a hostile length prefix.
	nc.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	buf := make([]byte, 16)
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		// Any response at all would mean the server tried to parse past a
		// refused frame; it must just hang up.
		t.Fatal("server responded to a hostile frame instead of closing")
	}
	// The listener is still fine.
	c := dial(t, srv, client.Options{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolErrorResponses exercises error mapping end to end: missing
// table, duplicate key, bad batch nesting.
func TestProtocolErrorResponses(t *testing.T) {
	srv, _ := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	if _, err := c.Point("missing", 0, 1); !errors.Is(err, client.ErrNoTable) {
		t.Fatalf("want ErrNoTable, got %v", err)
	}
	if err := c.CreateTable("t", []string{"id"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t", []string{"id"}, 0, 0); !errors.Is(err, client.ErrDupKey) {
		t.Fatalf("duplicate create-table: want ErrDupKey, got %v", err)
	}
	if err := c.Insert("t", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []float64{1}); !errors.Is(err, client.ErrDupKey) {
		t.Fatalf("duplicate insert: want ErrDupKey, got %v", err)
	}
	var serr *client.Error
	if err := c.Insert("t", []float64{1}); !errors.As(err, &serr) || serr.Code != proto.CodeDupKey {
		t.Fatalf("error does not expose wire code: %v", err)
	}
}

// TestBatchAcrossTables covers runBatch's table routing: a batch spanning
// two plain tables runs as one transaction whose queries read the batch
// snapshot, a multi-table batch that queries a partitioned table is
// refused, and a single-table batch on a partitioned table runs through
// that table's own executor.
func TestBatchAcrossTables(t *testing.T) {
	srv, _ := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	for _, tb := range []struct {
		name  string
		parts int
	}{{"a", 0}, {"b", 0}, {"p", 4}} {
		if err := c.CreateTable(tb.name, []string{"id", "x"}, 0, tb.parts); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := c.Insert(tb.name, []float64{float64(i), float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	res, err := c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "a", Row: []float64{100, 100}},
		{Kind: client.OpDelete, Table: "b", PK: 3},
		{Kind: client.OpInsert, Table: "p", Row: []float64{100, 100}},
		{Kind: client.OpRange, Table: "a", Col: 0, Lo: 0, Hi: 1000},
		{Kind: client.OpRange, Table: "b", Col: 1, Lo: 0, Hi: 1000},
	})
	if err != nil {
		t.Fatalf("two-plain-table batch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("two-plain-table batch op %d: %v", i, r.Err)
		}
	}
	if !res[1].Found {
		t.Fatal("batch delete did not find b/3")
	}
	// Queries read the batch-start snapshot: neither the insert into a nor
	// the delete from b is visible to them.
	if len(res[3].Rows) != 10 || len(res[4].Rows) != 10 {
		t.Fatalf("batch queries saw %d and %d rows, want 10 and 10 at the batch snapshot",
			len(res[3].Rows), len(res[4].Rows))
	}
	for table, want := range map[string]int{"a": 11, "b": 9, "p": 11} {
		if rows, err := c.Range(table, 0, 0, 1000); err != nil || len(rows) != want {
			t.Fatalf("%s after batch: %d rows (err %v), want %d", table, len(rows), err, want)
		}
	}

	_, err = c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "a", Row: []float64{200, 200}},
		{Kind: client.OpPoint, Table: "p", Col: 0, Lo: 1},
	})
	var serr *client.Error
	if !errors.As(err, &serr) || serr.Code != proto.CodeBadRequest {
		t.Fatalf("multi-table batch querying a partitioned table: want CodeBadRequest, got %v", err)
	}
	if rows, err := c.Point("a", 0, 200); err != nil || len(rows) != 0 {
		t.Fatalf("refused batch applied its insert: rows=%v err=%v", rows, err)
	}

	res, err = c.Batch([]client.Op{
		{Kind: client.OpInsert, Table: "p", Row: []float64{300, 300}},
		{Kind: client.OpUpdate, Table: "p", PK: 4, Col: 1, Value: -4},
		{Kind: client.OpRange, Table: "p", Col: 1, Lo: 0, Hi: 1000},
		{Kind: client.OpPoint, Table: "p", Col: 0, Lo: 4},
	})
	if err != nil {
		t.Fatalf("partitioned single-table batch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("partitioned single-table batch op %d: %v", i, r.Err)
		}
	}
	if len(res[2].Rows) != 11 || len(res[3].Rows) != 1 || res[3].Rows[0][1] != 4 {
		t.Fatalf("partitioned batch queries: range %d rows, point %v; want 11 rows and x=4",
			len(res[2].Rows), res[3].Rows)
	}
	if rows, err := c.Point("p", 0, 4); err != nil || len(rows) != 1 || rows[0][1] != -4 {
		t.Fatalf("partitioned batch update: rows=%v err=%v", rows, err)
	}
}

// TestWireHermitIndexUsesDefaultParams is the regression test for wire DDL
// building Hermit indexes with zero TRS-Tree params (one leaf, zero error
// bound, every row an outlier): over the wire, a Hermit index on nonlinear
// data must split into leaves and keep its outliers within OutlierRatio.
func TestWireHermitIndexUsesDefaultParams(t *testing.T) {
	srv, d := startServer(t, Options{})
	c := dial(t, srv, client.Options{})
	if err := c.CreateTable("s", []string{"pk", "x", "y"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	const rows = 4000
	for i := 0; i < rows; i++ {
		x := float64(i) / rows * 1000
		y := 1000 / (1 + math.Exp(-(x-500)/60))
		if _, err := d.Insert("s", []float64{float64(i), x, y}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBTreeIndex("s", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHermitIndex("s", 2, 1); err != nil {
		t.Fatal(err)
	}
	tb, err := d.Table("s")
	if err != nil {
		t.Fatal(err)
	}
	tr := tb.Hermit(2).Tree()
	ratio := trstree.DefaultParams().OutlierRatio
	if tr.LeafCount() <= 1 {
		t.Fatalf("wire-built tree has %d leaves, want a split tree", tr.LeafCount())
	}
	if frac := float64(tr.OutlierCount()) / rows; frac > ratio {
		t.Fatalf("wire-built tree outlier fraction %.3f exceeds %.3f", frac, ratio)
	}
	if got, err := c.Range("s", 2, 400, 600); err != nil || len(got) == 0 {
		t.Fatalf("hermit range: %d rows, err %v", len(got), err)
	}
}
