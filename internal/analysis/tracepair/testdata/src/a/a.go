// Package a exercises tracepair rule 1: span-opener end closures must run
// on every return path. Openers are any *Span function returning func().
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
	opSpan("dropped") // want `end closure is discarded`
}

func blank() {
	_ = opSpan("blank") // want `end closure is discarded`
}

func conditionalLeak(n int) {
	end := opSpan("cond") // want `not invoked on all return paths`
	if n > 0 {
		return
	}
	end()
}

func switchLeak(n int) {
	end := opSpan("switch") // want `not invoked on all return paths`
	switch n {
	case 0:
		end()
	}
}

func coveredPaths(n int) int {
	end := opSpan("covered")
	if n > 0 {
		end()
		return 1
	}
	end()
	return 0
}

func loopThenClose(items []int) {
	end := opSpan("loop")
	for range items {
	}
	end()
}

func deferredLater(n int) {
	end := opSpan("later")
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
