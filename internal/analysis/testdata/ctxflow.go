// Fixture for the ctxflow analyzer.
package fixture

import "context"

func solve(ctx context.Context, n int) error { return ctx.Err() }

// unusedCtx takes a context and drops it on the floor.
func unusedCtx(ctx context.Context, n int) int { // want "parameter ctx is never used"
	return n * 2
}

// blankCtx is the honest spelling of "I ignore cancellation".
func blankCtx(_ context.Context, n int) int {
	return n * 2
}

// newRoot forks a fresh root instead of propagating.
func newRoot(ctx context.Context) error {
	_ = ctx
	return solve(context.Background(), 1) // want "context.Background inside a function that already has a context"
}

func newTODO(ctx context.Context) error {
	_ = ctx
	return solve(context.TODO(), 1) // want "context.TODO inside a function that already has a context"
}

// propagated is the correct form.
func propagated(ctx context.Context) error {
	return solve(ctx, 1)
}

// A function with no context may start a root: that is what roots
// are for.
func entryPoint() error {
	return solve(context.Background(), 1)
}

// spinningWorker launches a worker whose infinite loop never looks
// at the context.
func spinningWorker(ctx context.Context, jobs chan int) {
	go func() {
		for { // want "infinite worker loop never observes the in-scope context"
			select {
			case j := <-jobs:
				_ = j
			}
		}
	}()
	<-ctx.Done()
}

// pollingWorker checks ctx.Err each round: fine.
func pollingWorker(ctx context.Context, jobs chan int) {
	go func() {
		for {
			if ctx.Err() != nil {
				return
			}
			<-jobs
		}
	}()
}

// selectingWorker selects on Done: fine.
func selectingWorker(ctx context.Context, jobs chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case j := <-jobs:
				_ = j
			}
		}
	}()
}

// rangeWorker drains a channel the producer closes on cancellation;
// the loop is bounded by the channel, not the context.
func rangeWorker(ctx context.Context, jobs chan int) {
	go func() {
		for range jobs {
		}
	}()
	<-ctx.Done()
	close(jobs)
}

// workerOwnCtx receives its own context parameter.
func workerOwnCtx(ctx context.Context, jobs chan int) {
	go func(ctx context.Context) {
		for {
			if ctx.Err() != nil {
				return
			}
			<-jobs
		}
	}(ctx)
}

// compute is the Background-calling compatibility wrapper for
// computeContext.
func compute(n int) int { return computeContext(context.Background(), n) }

func computeContext(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// lostContext has a context in scope but calls the wrapper, severing
// cancellation at this frame.
func lostContext(ctx context.Context, n int) int {
	_ = ctx.Err()
	return compute(n) // want "call computeContext and propagate ctx"
}

// keptContext calls the Context variant: fine.
func keptContext(ctx context.Context, n int) int {
	return computeContext(ctx, n)
}

// suppressedRoot argues for a fresh root in a comment; the finding
// stands, because no comment is an exception.
func suppressedRoot(ctx context.Context) error {
	_ = ctx.Err()
	//lint:ignore ctxflow detached audit write must survive request cancellation
	return solve(context.Background(), 1) // want "context.Background inside a function that already has a context"
}
