package main

import (
	"testing"

	"repro/internal/rng"
)

func TestZipfDeckDrawsExactProportions(t *testing.T) {
	d := newZipfDeck(busTopics, busZipfS, rng.New(1))
	counts := make([]int, busTopics)
	for i := 0; i < 3*deckSize; i++ {
		counts[d.draw()]++
	}
	if counts[0] != 3*30 {
		t.Errorf("hottest topic drawn %d times in three decks, want 90", counts[0])
	}
	for rank := 1; rank < busTopics; rank++ {
		if counts[rank] == 0 || counts[rank] > counts[rank-1] {
			t.Errorf("rank %d drawn %d times after rank %d's %d", rank, counts[rank], rank-1, counts[rank-1])
		}
	}
}
