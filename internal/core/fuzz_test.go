package core

import (
	"sync/atomic"
	"testing"
)

// FuzzGroup fuzzes the per-group quiescence invariant: random spawn trees
// are interleaved across a random number of groups on one scheduler, and
// every group's Wait must observe all and only its own tasks — the group's
// completion counter equals exactly the size of its spawn tree, every group
// reads zero pending, and (after all groups drained) the admission counters
// reconcile.
func FuzzGroup(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(2), uint8(2))
	f.Add(uint64(42), uint8(5), uint8(1), uint8(3), uint8(1))
	f.Add(uint64(7), uint8(1), uint8(8), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nGroups, roots, depth, fanout uint8) {
		ng := 1 + int(nGroups)%8
		nr := int(roots) % 9
		dp := int(depth) % 4
		fo := int(fanout) % 4
		s := New(Options{P: 4, Seed: seed})
		defer s.Shutdown()

		// treeSize is the node count of one root's spawn tree.
		treeSize := 1
		pow := 1
		for d := 0; d < dp; d++ {
			pow *= fo
			treeSize += pow
		}

		counts := make([]atomic.Int64, ng)
		gs := make([]*Group, ng)
		for i := range gs {
			gs[i] = s.NewGroup()
		}
		var rec func(ctx *Ctx, c *atomic.Int64, d int)
		rec = func(ctx *Ctx, c *atomic.Int64, d int) {
			c.Add(1)
			if d == 0 {
				return
			}
			for j := 0; j < fo; j++ {
				ctx.Spawn(Solo(func(cc *Ctx) { rec(cc, c, d-1) }))
			}
		}
		// Interleave the root spawns round-robin across the groups so the
		// groups' trees grow and drain concurrently.
		for r := 0; r < nr; r++ {
			for i, g := range gs {
				c := &counts[i]
				g.Spawn(Solo(func(ctx *Ctx) { rec(ctx, c, dp) }))
			}
		}
		// Wait in a seed-dependent rotation; each Wait must see exactly its
		// own group's tree completed, no more and no less.
		for k := 0; k < ng; k++ {
			i := (k + int(seed%uint64(ng))) % ng
			gs[i].Wait()
			if p := gs[i].Pending(); p != 0 {
				t.Fatalf("group %d pending = %d after Wait", i, p)
			}
			want := int64(nr * treeSize)
			if got := counts[i].Load(); got != want {
				t.Fatalf("group %d observed %d tasks at Wait, want %d (roots=%d depth=%d fanout=%d)",
					i, got, want, nr, dp, fo)
			}
		}
		if adm := s.Admission(); adm.Injected != adm.Taken+adm.Revoked {
			t.Fatalf("admission does not reconcile after all groups drained: %v", adm)
		}
	})
}
