from compare import pair_wins, verdict


def test_pair_wins_counts_ties_for_neither_side():
    assert pair_wins([1, 2, 3], [2, 2, 1], higher_is_better=True) \
        == (1, 1, 1)
    assert pair_wins([1, 2, 3], [2, 2, 1], higher_is_better=False) \
        == (1, 1, 1)


def test_clear_gain_is_better():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [120, 121, 119, 122, 120, 118, 121, 120, 119, 120]
    outcome, _ = verdict(parent, change, higher_is_better=True, bound=0.1)
    assert outcome == "better"


def test_regression_past_the_bound_is_worse():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2]
    change = [13.0, 13.1, 12.9, 13.0, 13.2]  # latency up 30%
    outcome, _ = verdict(parent, change, higher_is_better=False, bound=0.2)
    assert outcome == "worse"


def test_small_change_is_within_bound():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 10.1]
    change = [10.1, 10.0, 10.2, 9.9, 10.1, 10.0]
    outcome, _ = verdict(parent, change, higher_is_better=False, bound=0.2)
    assert outcome == "within bound"


def test_spread_wider_than_bound_is_unresolved():
    parent = [5.0, 10.0, 15.0, 8.0, 12.0, 6.0, 14.0]
    change = [6.0, 11.0, 14.0, 9.0, 12.5, 7.0, 13.0]
    outcome, detail = verdict(parent, change, higher_is_better=True,
                              bound=0.1)
    assert outcome == "unresolved"
    assert "pairs won" in detail


def test_noisy_regression_is_unresolved_not_worse():
    # Medians 10 -> 13 (30% worse), but each set spreads wider than the
    # bound and the sets overlap: noise alone could give this.
    parent = [6.0, 10.0, 14.0, 8.0, 12.0, 7.0, 13.0]
    change = [9.0, 13.0, 17.0, 11.0, 15.0, 10.0, 16.0]
    outcome, _ = verdict(parent, change, higher_is_better=False, bound=0.2)
    assert outcome == "unresolved"


def test_noisy_but_separated_regression_is_worse():
    parent = [6.0, 10.0, 14.0, 8.0, 12.0, 7.0, 13.0]
    change = [26.0, 30.0, 34.0, 28.0, 32.0, 27.0, 33.0]
    outcome, _ = verdict(parent, change, higher_is_better=False, bound=0.2)
    assert outcome == "worse"
