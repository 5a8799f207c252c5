package serve

import (
	"math"
	"testing"
)

// TestAlarmerTenantPushBatchAllocs pins AlarmerTenant.PushBatch at one
// allocation per batch (the responses slice, sized once), returning the
// same responses as ScorerTenant and nil for a batch that readies none.
func TestAlarmerTenantPushBatchAllocs(t *testing.T) {
	g := testGen(t)
	stream := g.Background()
	alarmer, err := tenantFactory(t, g, 1)()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := alarmer.(AlarmerTenant); !ok {
		t.Fatalf("tenant is %T, want AlarmerTenant", alarmer)
	}
	scorer, err := tenantFactory(t, g, 0)()
	if err != nil {
		t.Fatal(err)
	}

	head := stream[:testWindow-1]
	got, _, err := alarmer.PushBatch(head)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("batch shorter than the window returned %v, want nil", got)
	}
	if _, _, err := scorer.PushBatch(head); err != nil {
		t.Fatal(err)
	}
	for off := len(head); off+16 <= len(stream); off += 16 {
		batch := stream[off : off+16]
		got, _, err := alarmer.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := scorer.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("offset %d: %d responses, ScorerTenant %d", off, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("offset %d response %d: %v, ScorerTenant %v", off, i, got[i], want[i])
			}
		}
	}

	batch := stream[:16]
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := alarmer.PushBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("PushBatch of 16 events: %v allocs, want 1", allocs)
	}
}
