package serve

import (
	"fmt"
	"sync"
	"time"
)

// QuotaError is the typed per-tenant rejection: too many jobs in flight, or
// the tenant's token bucket is empty. HTTP maps it to 429 with Retry-After.
type QuotaError struct {
	Tenant     string
	Reason     string        // "in-flight" or "rate"
	RetryAfter time.Duration // 0 when retrying immediately may succeed
}

func (e *QuotaError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("serve: tenant %q over %s quota; retry after %s", e.Tenant, e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("serve: tenant %q over %s quota", e.Tenant, e.Reason)
}

// Quotas enforces per-tenant limits: a cap on concurrently admitted jobs
// and a token-bucket throughput limit. Zero-valued limits are off. A nil
// *Quotas admits everything.
type Quotas struct {
	maxInFlight int
	ratePerSec  float64
	burst       float64
	now         func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

type tenantState struct {
	inFlight int
	tokens   float64
	last     time.Time
}

// NewQuotas builds per-tenant limits: at most maxInFlight admitted jobs per
// tenant at once (0 = unlimited) and ratePerSec sustained jobs/sec with the
// given burst (0 rate = unlimited).
func NewQuotas(maxInFlight int, ratePerSec, burst float64) *Quotas {
	if burst < 1 {
		burst = 1
	}
	return &Quotas{
		maxInFlight: maxInFlight,
		ratePerSec:  ratePerSec,
		burst:       burst,
		now:         time.Now,
		tenants:     make(map[string]*tenantState),
	}
}

// SetClock injects a time source for tests.
// Test seam: injects a fake clock into the token buckets.
func (q *Quotas) SetClock(now func() time.Time) { q.now = now }

// acquire admits one job for the tenant or rejects with *QuotaError. The
// returned release is idempotent and must be called exactly when the job
// resolves (the scheduler owns this).
func (q *Quotas) acquire(tenant string) (release func(), err error) {
	if q == nil {
		return func() {}, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	ts := q.tenants[tenant]
	if ts == nil {
		ts = &tenantState{tokens: q.burst, last: q.now()}
		q.tenants[tenant] = ts
	}
	if q.maxInFlight > 0 && ts.inFlight >= q.maxInFlight {
		return nil, &QuotaError{Tenant: tenant, Reason: "in-flight"}
	}
	if q.ratePerSec > 0 {
		now := q.now()
		ts.tokens += now.Sub(ts.last).Seconds() * q.ratePerSec
		ts.last = now
		if ts.tokens > q.burst {
			ts.tokens = q.burst
		}
		if ts.tokens < 1 {
			wait := time.Duration((1 - ts.tokens) / q.ratePerSec * float64(time.Second))
			return nil, &QuotaError{Tenant: tenant, Reason: "rate", RetryAfter: wait}
		}
		ts.tokens--
	}
	ts.inFlight++
	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			ts.inFlight--
			q.mu.Unlock()
		})
	}, nil
}
