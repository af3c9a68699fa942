// Package poolleak is analyzer testdata: sync.Pool Get/Put pairings in
// every shape the checker distinguishes.
package poolleak

import (
	"bytes"
	"sync"
)

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// goodDeferred is the canonical shape: defer the Put next to the Get.
func goodDeferred(data []byte) int {
	buf := pool.Get().(*bytes.Buffer)
	defer pool.Put(buf)
	buf.Reset()
	buf.Write(data)
	return buf.Len()
}

// goodDeferredClosure defers the Put inside a closure.
func goodDeferredClosure(data []byte) int {
	buf := pool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		pool.Put(buf)
	}()
	buf.Write(data)
	return buf.Len()
}

// goodImmediate puts before any return.
func goodImmediate() int {
	buf := pool.Get().(*bytes.Buffer)
	n := buf.Cap()
	pool.Put(buf)
	return n
}

// badNoPut never returns the buffer to the pool.
func badNoPut(data []byte) int {
	buf := pool.Get().(*bytes.Buffer) // want `sync.Pool Get of buf has no matching Put`
	buf.Reset()
	buf.Write(data)
	return buf.Len()
}

// badEarlyReturn leaks on the error path: the Put only runs on the
// happy path.
func badEarlyReturn(data []byte) int {
	buf := pool.Get().(*bytes.Buffer)
	buf.Reset()
	if len(data) == 0 {
		return 0 // want `return path leaks pooled value buf`
	}
	buf.Write(data)
	n := buf.Len()
	pool.Put(buf)
	return n
}

// badEscape hands the pooled buffer to the caller while a later Put can
// recycle it underneath them.
func badEscape() *bytes.Buffer {
	buf := pool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf // want `pooled value buf escapes via return`
}

// suppressedEscape is the documented ownership-transfer shape.
//
//ckvet:ignore poolleak ownership transfers to the caller, which defers the Put
func suppressedEscape() *bytes.Buffer {
	buf := pool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}
