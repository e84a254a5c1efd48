"""Acceptance gate: fourteen required behaviors, one test per criterion.

Every check is an exact symbolic identity; nothing here carries a numerical
tolerance. Most criteria are backed by the verification registry run once at
n_max = 6 with the default seed, plus direct spot checks. `pytest -v` prints
one pass/fail line per criterion; each test also prints its own CRITERION
line for -s runs.
"""

import hashlib
import itertools
import json

import pytest

from hecke import (
    Caps,
    MismatchError,
    build_registry,
    catalog_h3,
    commutator,
    elem_sym,
    express_in_gamma,
    in_sqrt_centre,
    murphy,
    parse_scalar,
    run_verify,
    sample_sqrt_h3,
    statement_ids,
    x_elem,
    y_elem,
)

SEED = 0
N_MAX = 6

# registry items that are legitimately reported as flags, not passes:
# known listing discrepancies and one operational-definition note
EXPECTED_FLAGS = {
    "04-longestsq-printed-scale-n3",
    "06-sqrt-r4r5-span-note-n3",
    "07-ybarsq-printed-n3",
}


@pytest.fixture(scope="module")
def report():
    return run_verify(n_max=N_MAX, seed=SEED)


def _statuses(report, ids):
    table = {r.item_id: r for r in report.results}
    missing = [i for i in ids if i not in table]
    assert not missing, f"registry is missing items: {missing}"
    bad = []
    for i in ids:
        want = "flag" if i in EXPECTED_FLAGS else "pass"
        if table[i].status != want:
            bad.append((i, table[i].status, table[i].detail))
    return bad


def _criterion(k, label, report, ids, extra_ok=True):
    bad = _statuses(report, ids)
    ok = extra_ok and not bad
    print(f"CRITERION {k}: {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"CRITERION {k} failed; registry problems: {bad}; extra={extra_ok}"


def test_criterion_01_murphy_elements_commute(report, ctx4):
    fam = [murphy(ctx4, i) for i in range(2, 5)]
    direct = all(
        commutator(a, b).is_zero() for a, b in itertools.combinations(fam, 2)
    )
    ids = [f"01-murphy-commute-n{n}" for n in range(3, 7)]
    _criterion(1, "Murphy elements commute through degree 6", report, ids, direct)


def test_criterion_02_symmetric_sums_decompose_over_gamma(report, ctx3, gb3):
    one = parse_scalar("1")
    zero = parse_scalar("0")
    direct = True
    for i in range(0, 3):
        coords = express_in_gamma(elem_sym(ctx3, i), gb3)
        for lam, c in coords.items():
            want = one if lam.min_length() == i else zero
            direct = direct and c == want
    ids = [f"03-esym-gamma-n{n}" for n in range(3, 6)]
    _criterion(
        2,
        "symmetric sums split over the minimal central basis by class length",
        report,
        ids,
        direct,
    )


def test_criterion_03_longest_word_square_normalized_forms(report):
    ids = (
        [f"04-longestsq-esym-n{n}" for n in range(3, 7)]
        + [f"04-longestsq-twist-n{n}" for n in range(3, 7)]
        + [f"04-braidmurphy-linear-n{n}" for n in range(3, 7)]
    )
    _criterion(
        3,
        "normalized longest-word square equals the symmetric sum and the"
        " ordered product forms through degree 6",
        report,
        ids,
    )


def test_criterion_04_longest_word_square_q_form_with_flag(report):
    ids = [f"04-longestsq-qform-n{n}" for n in range(3, 6)] + [
        "04-longestsq-printed-scale-n3"
    ]
    table = {r.item_id: r for r in report.results}
    flagged = table["04-longestsq-printed-scale-n3"]
    noted = flagged.status == "flag" and bool(flagged.detail)
    _criterion(
        4,
        "longest-word square q-form holds and the degree-3 listing scale"
        " discrepancy is flagged in the report",
        report,
        ids,
        noted,
    )


def test_criterion_05_dual_murphy_identities(report):
    ids = []
    for name in ("dual-sum", "dual-nested", "dual-cyclepair", "dual-flip"):
        ids += [f"02-{name}-n{n}" for n in range(3, 7)]
    ids += [f"03-esym-recursion-n{n}" for n in range(3, 7)]
    _criterion(
        5,
        "reversed Murphy family identities and the recursion through degree 6",
        report,
        ids,
    )


def test_criterion_06_x_y_projector_suite(report):
    ids = []
    for name in ("xy-action", "xy-central", "xy-gamma", "xy-squares"):
        ids += [f"05-{name}-n{n}" for n in range(3, 6)]
    _criterion(
        6,
        "index and sign projectors: absorption, centrality, coordinates,"
        " squares through degree 5",
        report,
        ids,
    )


def test_criterion_07_sqrt_structure(report):
    ids = [
        "06-sqrt-membership-n3", "06-sqrt-membership-n4", "06-sqrt-membership-n5",
        "06-sqrt-products-n3", "06-sqrt-products-n4", "06-sqrt-products-n5",
        "06-sqrt-span-n3", "06-sqrt-span-n4", "06-sqrt-span-n5",
        "06-sqrt-sumdiff-n3", "06-sqrt-sumdiff-n4", "06-sqrt-sumdiff-n5",
        "06-sqrt-mixed-not-n3", "06-sqrt-mixed-not-n4", "06-sqrt-mixed-not-n5",
        "06-sqrt-increment-n3", "06-sqrt-increment-n4",
        "06-even-words-n3", "06-even-words-n4", "06-even-words-n5",
        "06-sqrt-r4r5-span-note-n3",
    ]
    _criterion(
        7,
        "square-root-of-centre membership, products, spans, and parity laws"
        " through degree 5",
        report,
        ids,
    )


def test_criterion_08_xbar_ybar_square_closed_forms(report):
    ids = [f"07-truncation-squares-n{n}" for n in range(3, 6)] + [
        "07-xbarsq-printed-n3",
        "07-ybarsq-printed-n3",
    ]
    table = {r.item_id: r for r in report.results}
    noted = table["07-ybarsq-printed-n3"].status == "flag"
    _criterion(
        8,
        "truncated projector squares match both closed forms, with the"
        " degree-3 printed lists reproduced and the scale note flagged",
        report,
        ids,
        noted,
    )


def test_criterion_09_degree_three_catalog(report):
    cat = catalog_h3()
    direct = (cat["R5"] * cat["R5"]) == (cat["R4"] * cat["R4"]).scale(
        parse_scalar("-q")
    )
    ids = ["08-h3-fixtures-n3", "08-h3-checks-n3", "08-h3-eigen-search-n3"]
    _criterion(
        9,
        "degree-3 catalog: strict roots, rank, eigenvalue table, printed"
        " squares",
        report,
        ids,
        direct,
    )


def test_criterion_10_degree_four_catalog(report):
    _criterion(
        10,
        "degree-4 catalog: squares central, ranks and commutation pattern",
        report,
        ["09-h4-checks-n4"],
    )


def test_criterion_11_quadratic_branch_classification(report, gb3):
    direct = all(
        in_sqrt_centre(sample_sqrt_h3(seed), gb3).in_sqrt for seed in range(10)
    )
    ids = ["10-branch-random-n3", "10-central-branch-n3", "10-classify-fixtures-n3"]
    _criterion(
        11,
        "degree-3 constraint branches: sampled roots verify, central branch"
        " recovers the centre",
        report,
        ids,
        direct,
    )


def test_criterion_12_integer_specialization_oracle(report):
    ids = [f"11-gamma-classsums-n{n}" for n in range(3, 6)] + [
        "11-oracle-products-n4"
    ]
    _criterion(
        12,
        "products and central basis match the permutation-algebra oracle at"
        " q = 1",
        report,
        ids,
    )


def test_criterion_13_truncated_projectors_are_nonzerodivisors(report):
    _criterion(
        13,
        "left multiplication by the truncated projectors has full rank",
        report,
        ["12-nonzerodivisor-n3", "12-nonzerodivisor-n4"],
    )


def test_criterion_14_gamma_integrality_and_pinning(report):
    ids = [f"13-gamma-integrality-n{n}" for n in range(3, 6)] + [
        f"13-gamma-pinning-n{n}" for n in range(3, 6)
    ]
    _criterion(
        14,
        "central basis coefficients avoid odd powers and obey the"
        " minimal-length pinning",
        report,
        ids,
    )


def test_full_registry_has_no_failures(report):
    counts = report.counts
    assert counts["fail"] == 0
    assert counts["pass"] + counts["flag"] == len(report.results)
    assert {r.item_id for r in report.results if r.status == "flag"} == EXPECTED_FLAGS
    assert report.passed


def test_report_matches_the_behavioural_fingerprint(report):
    # sha256 of `hecke verify --n-max 6 --json`; any change to an exact
    # result, an item id or a status changes it
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == "2cb47925da7f0cdcb261f933e04ba233b4e49f60a6cab40580233df1e0cf87a9"


def test_registry_ids_match_the_published_listing(report):
    from hecke import statement_ids

    assert [r.item_id for r in report.results] == statement_ids(N_MAX)
    assert {r.n for r in report.results} == {2, 3, 4, 5, 6}


def test_minimal_basis_items_follow_the_enumeration_cap():
    from hecke import Caps, statement_ids

    n5_gamma = {"03-esym-gamma-n5", "04-longestsq-qform-n5", "05-xy-gamma-n5",
                "07-truncation-squares-n5", "11-gamma-classsums-n5",
                "13-gamma-integrality-n5", "13-gamma-pinning-n5"}
    assert len(statement_ids(N_MAX)) == 110
    assert n5_gamma <= set(statement_ids(N_MAX, Caps(linalg_max=4)))
    assert run_verify(N_MAX, caps=Caps(linalg_max=4), only=sorted(n5_gamma)).passed
    assert not n5_gamma & set(statement_ids(N_MAX, Caps(enum_max=4)))


@pytest.mark.parametrize("caps, digest", [
    (Caps(), "e1c7c1d4dbe41fa799c332c6708eb28dab281b3f1610f005a3dc066c91482c99"),
    (Caps(enum_max=4),
     "d1373e9d9aac3d8568542e3ca199be3fa3282e439e6f8cccc0aaeb2e1b647098"),
    (Caps(linalg_max=4),
     "e1c7c1d4dbe41fa799c332c6708eb28dab281b3f1610f005a3dc066c91482c99"),
], ids=["default", "enum_max=4", "linalg_max=4"])
def test_registry_listing_is_pinned(caps, digest):
    # (id, statement, degree, flag note) of every item at n_max = 2..7, in
    # the order build_registry returns them, which is id order
    doc = [[it.item_id, it.statement, it.n, it.flag_note]
           for n_max in range(2, 8) for it in build_registry(n_max, caps)]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


def test_a_low_enumeration_cap_drops_the_basis_items_above_it():
    # the first check that reads the basis builds it, inside the run, so
    # a cap of 3 leaves out the basis items at 4 and 5, and those that
    # enumerate S_n for the symmetrizers or their truncations, and runs the
    # rest; a linear-algebra cap leaves out the items that solve over the
    # centre above it.  No item that runs stops on a cap.
    report = run_verify(N_MAX, caps=Caps(enum_max=3))
    ran = {r.item_id for r in report.results}
    stems = ("03-esym-gamma", "04-longestsq-qform", "05-xy-gamma",
             "07-truncation-squares", "11-gamma-classsums",
             "13-gamma-integrality", "13-gamma-pinning", "05-xy-action",
             "05-xy-central", "05-xy-squares", "06-sqrt-membership",
             "06-sqrt-products", "06-sqrt-span", "06-sqrt-sumdiff",
             "06-sqrt-mixed-not", "06-even-words")
    assert set(statement_ids(N_MAX)) - ran == (
        {f"{stem}-n{n}" for stem in stems for n in (4, 5)}
        | {"12-nonzerodivisor-n4"})
    assert ran == set(statement_ids(N_MAX, Caps(enum_max=3)))
    assert report.passed
    solving = {"08-h3-eigen-search-n3", "12-nonzerodivisor-n3",
               "12-nonzerodivisor-n4"}
    for cap, dropped in ((2, solving), (1, solving | {"14-commutative-n2"})):
        report = run_verify(N_MAX, caps=Caps(linalg_max=cap))
        ran = {r.item_id for r in report.results}
        assert set(statement_ids(N_MAX)) - ran == dropped
        assert ran == set(statement_ids(N_MAX, Caps(linalg_max=cap)))
        assert report.passed


def test_the_degree_two_centre_item_follows_both_caps():
    # centre_basis walks S_n, so its row names both caps: an enumeration
    # cap below 2 leaves the item out instead of failing it
    report = run_verify(3, caps=Caps(enum_max=1))
    ran = {r.item_id for r in report.results}
    assert report.passed and ran
    assert "14-commutative-n2" not in ran
    assert "14-commutative-n2" in statement_ids(3, Caps(enum_max=2))


def test_a_failed_identity_names_its_first_differing_term():
    from hecke.verify import _eq

    with pytest.raises(MismatchError) as info:
        _eq(x_elem(3), y_elem(3), "probe")
    assert str(info.value) == "probe: sides differ at T_[1, 2, 3]: 1 vs -q^3"
