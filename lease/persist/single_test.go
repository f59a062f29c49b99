package persist

import (
	"context"
	"time"

	"repro/lease"
)

// acquire1, renew1 and release1 are the one-item batch for tests that are
// about a single lease. Each returns the call-level error, or else the
// item's own outcome.

func acquire1(m *lease.Manager, owner string, ttl time.Duration, meta map[string]string) (lease.Lease, error) {
	ls, err := m.AcquireBatch(context.Background(), owner, 1, ttl, meta)
	if err != nil {
		return lease.Lease{}, err
	}
	return ls[0], nil
}

func renew1(m *lease.Manager, name int, token uint64, ttl time.Duration) (lease.Lease, error) {
	res, err := m.RenewBatch(context.Background(), []lease.RenewItem{{Name: name, Token: token}}, ttl)
	if err != nil {
		return lease.Lease{}, err
	}
	return res[0].Lease, res[0].Err
}

func release1(m *lease.Manager, name int, token uint64) error {
	res, err := m.ReleaseBatch(context.Background(), []lease.ReleaseItem{{Name: name, Token: token}})
	if err != nil {
		return err
	}
	return res[0].Err
}
