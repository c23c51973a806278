package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"casa/internal/cli/clitest"
)

func TestConflictMatrix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a successful server drains and returns at once
	clitest.ConflictMatrix(t, ctx, "casa-serve", run)
}

// syncBuffer is a bytes.Buffer safe to read while run writes its log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEarlySignalDrains: a stop requested right after the server is
// ready drains it and exits 0, instead of killing it mid start-up.
func TestEarlySignalDrains(t *testing.T) {
	f := clitest.NewFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-index", f.Index, "-addr", "127.0.0.1:0"}, &stdout, &stderr)
	}()
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(stderr.String(), "seeding server listening"); {
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready:\n%s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case c := <-code:
		if c != 0 || !strings.Contains(stderr.String(), "drained, exiting") {
			t.Fatalf("exit %d, want 0 after the drain:\n%s", c, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}
