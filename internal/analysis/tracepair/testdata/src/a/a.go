// Package a exercises tracepair: a span opener's end closure must be
// called where it is made, by `defer opener(...)()` or `opener(...)()`. A
// closure bound to a variable is a finding even when every path closes it.
// Openers are any *Span function returning func().
package a

// opSpan opens a span and returns its end closure.
func opSpan(name string) func() { return func() {} }

// sliceSpan returns nothing, so it is not an opener.
func sliceSpan(name string) {}

func canonical(n int) {
	defer opSpan("canonical")() // the idiom: fine
	if n > 0 {
		return
	}
}

func zeroLength() {
	opSpan("zero")() // immediately closed: fine
}

func dropped() {
	opSpan("dropped") // want `end closure is not called where it is made`
}

func blank() {
	_ = opSpan("blank") // want `end closure is not called where it is made`
}

func conditionalLeak(n int) {
	end := opSpan("cond") // want `end closure is not called where it is made`
	if n > 0 {
		return
	}
	end()
}

func switchLeak(n int) {
	end := opSpan("switch") // want `end closure is not called where it is made`
	switch n {
	case 0:
		end()
	}
}

func coveredPaths(n int) int {
	end := opSpan("covered") // want `end closure is not called where it is made`
	if n > 0 {
		end()
		return 1
	}
	end()
	return 0
}

func loopThenClose(items []int) {
	end := opSpan("loop") // want `end closure is not called where it is made`
	for range items {
	}
	end()
}

func deferredLater(n int) {
	end := opSpan("later") // want `end closure is not called where it is made`
	defer end()
	if n > 0 {
		return
	}
}

func voidHelper() {
	sliceSpan("void") // no end closure to lose: fine
}

func allowedLeak(ch chan struct{}) {
	//lint:allow tracepair Span deliberately closed by the receiver goroutine
	end := opSpan("handoff")
	go func() {
		<-ch
		end()
	}()
}

// watchdogShape mirrors the PR-2 Recv-watchdog timeout path: the span ends
// via defer before the select, so the timeout arm returning early must not
// be flagged.
func watchdogShape(ch, timeout chan int) int {
	defer opSpan("recv")()
	select {
	case v := <-ch:
		return v
	case <-timeout:
		return -1
	}
}
