"""The three strict xfails of the acceptance gate fail on their assertions.

A strict xfail counts any exception as its expected failure, so a
TypeError from a changed signature would read "xfailed" like the
published constant it is meant to refute.  Each published-constant
criterion is called directly here and must raise AssertionError.
"""

import pytest

import test_acceptance

PUBLISHED_CONSTANT_CRITERIA = (test_acceptance.test_criterion_4_curvature_exponent,
                               test_acceptance.test_criterion_6_cone_limit_published_constants,
                               test_acceptance.test_criterion_9_closeness_ratio_a2)


@pytest.mark.parametrize("criterion", PUBLISHED_CONSTANT_CRITERIA, ids=lambda f: f.__name__)
def test_published_constant_fails_on_its_assertion(criterion):
    with pytest.raises(AssertionError):
        criterion()
