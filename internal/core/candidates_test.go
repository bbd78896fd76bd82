package core

import "context"

// exploreBounded is the bounded explore as a solution list: every
// candidate boundedCandidates keeps, assembled. Filter over it must
// equal Filter over ExploreContext value for value and in order, the
// property the bounded path's byte identity rests on; OptimizeContext
// itself never assembles the list (candidates.best).
func exploreBounded(ctx context.Context, spec Spec, opts *Options) ([]*Solution, bool, error) {
	c, ok, err := boundedCandidates(ctx, spec, opts, nil, -1)
	if err != nil || !ok {
		return nil, ok, err
	}
	sols := make([]*Solution, c.len())
	for i := range sols {
		sols[i] = c.at(i, new(Solution))
	}
	return sols, true, nil
}
