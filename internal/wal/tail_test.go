package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestTailerFollowsLiveLog: a Tailer reads frames as the appender writes
// them, parks at the current end, resumes after more appends, and tracks
// Size through FrameSize.
func TestTailerFollowsLiveLog(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wake := make(chan struct{}, 1)
	l.Watch(wake)
	if ws := l.Watchers(); len(ws) != 1 || ws[0] != wake {
		t.Fatalf("Watchers() = %v, want the registered channel", ws)
	}
	tl, err := OpenTailer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if tl.Offset() != HeaderLen {
		t.Fatalf("fresh tailer at offset %d, want %d", tl.Offset(), HeaderLen)
	}
	if _, ok, err := tl.Next(); ok || err != nil {
		t.Fatalf("empty log: ok=%v err=%v", ok, err)
	}

	recs := []Record{
		{Op: OpInsert, Table: "a", Payload: []byte{1, 2}},
		{Op: OpDelete, Table: "bb", Payload: nil},
		{Op: OpUpdate, Table: "", Payload: bytes.Repeat([]byte{7}, 300)},
	}
	want := int64(HeaderLen)
	for i, r := range recs {
		mustAppend(t, l, r)
		want += FrameSize(r)
		if l.Size() != want {
			t.Fatalf("after record %d Size() = %d, want %d", i, l.Size(), want)
		}
		if l.LastLSN() != uint64(i+1) {
			t.Fatalf("after record %d LastLSN() = %d", i, l.LastLSN())
		}
		<-wake // the appender notifies watchers after each write
		got, ok, err := tl.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got.LSN != uint64(i+1) || got.Op != r.Op || got.Table != r.Table || !bytes.Equal(got.Payload, r.Payload) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, r)
		}
		if tl.Offset() != want {
			t.Fatalf("record %d: tailer offset %d, want %d", i, tl.Offset(), want)
		}
		if _, ok, _ := tl.Next(); ok {
			t.Fatalf("tailer read past the end after record %d", i)
		}
	}

	// A second tailer opened at a frame boundary starts there.
	mid := int64(HeaderLen) + FrameSize(recs[0])
	t2, err := OpenTailer(path, mid)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	if got, ok, err := t2.Next(); err != nil || !ok || got.LSN != 2 {
		t.Fatalf("tailer at offset %d: got LSN %d ok=%v err=%v, want LSN 2", mid, got.LSN, ok, err)
	}
}

// TestTailerParksAtTornTail: a partial or corrupt frame is the end of
// the valid log, not an error; once the bytes are completed the retry
// succeeds.
func TestTailerParksAtTornTail(t *testing.T) {
	path := logPath(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Op: OpInsert, Table: "t", Payload: []byte("payload")}
	mustAppend(t, l, rec)
	mustAppend(t, l, rec)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := int64(HeaderLen) + FrameSize(rec)

	// Torn: the second frame is cut short.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, ok, err := tl.Next(); !ok || err != nil {
		t.Fatalf("first frame: ok=%v err=%v", ok, err)
	}
	if _, ok, err := tl.Next(); ok || err != nil {
		t.Fatalf("torn frame: ok=%v err=%v, want a clean park", ok, err)
	}
	if tl.Offset() != second {
		t.Fatalf("parked at %d, want %d", tl.Offset(), second)
	}

	// Corrupt: a flipped payload byte fails the checksum.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tl.Next(); ok || err != nil {
		t.Fatalf("corrupt frame: ok=%v err=%v, want a clean park", ok, err)
	}

	// Completed: the retry reads the frame.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := tl.Next(); !ok || err != nil || got.LSN != 2 {
		t.Fatalf("completed frame: LSN %d ok=%v err=%v", got.LSN, ok, err)
	}
}

// TestOpenTailerRejectsNonSegments: a missing file and a file without a
// log header are not live segments.
func TestOpenTailerRejectsNonSegments(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenTailer(filepath.Join(dir, "missing.log"), 0); err == nil {
		t.Fatal("tailer opened a missing file")
	}
	junk := filepath.Join(dir, "junk.log")
	if err := os.WriteFile(junk, []byte("not a wal header at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTailer(junk, 0); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("junk header: %v, want ErrBadFormat", err)
	}
	empty := filepath.Join(dir, "empty.log")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTailer(empty, 0); err == nil {
		t.Fatal("tailer opened a file with no header")
	}
}

// TestSubmitRawKeepsLeaderLSNs: a mirrored record keeps its assigned LSN
// (gaps allowed), a stale or zero LSN is refused, and replay returns the
// mirrored numbering.
func TestSubmitRawKeepsLeaderLSNs(t *testing.T) {
	path := logPath(t)
	l, err := OpenWith(path, Options{BaseLSN: 10})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != 10 {
		t.Fatalf("BaseLSN 10: LastLSN() = %d", l.LastLSN())
	}
	submit := func(lsn uint64) (uint64, error) {
		tk, err := l.SubmitRaw(Record{LSN: lsn, Op: OpInsert, Table: "t", Payload: []byte{byte(lsn)}})
		if err != nil {
			return 0, err
		}
		return tk.Wait()
	}
	if _, err := submit(0); !errors.Is(err, ErrStaleLSN) {
		t.Fatalf("LSN 0: %v, want ErrStaleLSN", err)
	}
	if got, err := submit(11); err != nil || got != 11 {
		t.Fatalf("LSN 11: got %d err %v", got, err)
	}
	if got, err := submit(15); err != nil || got != 15 {
		t.Fatalf("LSN 15: got %d err %v", got, err)
	}
	if _, err := submit(15); !errors.Is(err, ErrStaleLSN) {
		t.Fatalf("repeated LSN 15: %v, want ErrStaleLSN", err)
	}
	if _, err := l.SubmitRaw(Record{LSN: 16, Table: string(make([]byte, 1<<16))}); !errors.Is(err, ErrTableNameTooLong) {
		t.Fatalf("long table name: %v, want ErrTableNameTooLong", err)
	}
	if _, err := l.SubmitRaw(Record{LSN: 16, Payload: make([]byte, maxBodyLen)}); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized record: %v, want ErrRecordTooLarge", err)
	}
	// The appender continues from the mirrored LSN.
	if got := mustAppend(t, l, Record{Op: OpInsert, Table: "t"}); got != 16 {
		t.Fatalf("append after raw LSN 15 got LSN %d, want 16", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	if err := Replay(path, func(r Record) error { lsns = append(lsns, r.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 3 || lsns[0] != 11 || lsns[1] != 15 || lsns[2] != 16 {
		t.Fatalf("replayed LSNs %v, want [11 15 16]", lsns)
	}
}
