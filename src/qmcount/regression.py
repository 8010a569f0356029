"""Frozen reference values for the counting sequences and triangles.

Each pin holds a published run at explicit indices from `start` on:
either a sequence's values or a triangle's rows, one tuple per row.  Any
regression in the computing routes is caught by direct comparison.  The
`source` field names the OEIS entry when one exists, otherwise a short
tag for where the values come from.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RegressionEntry:
    name: str
    q: int
    k: int | None
    start: int
    values: tuple[int, ...] | tuple[tuple[int, ...], ...]
    source: str


PINS: tuple[RegressionEntry, ...] = (
    RegressionEntry("all", 2, None, 0, (1, 2, 16, 512, 65536), "A002416"),
    RegressionEntry(
        "invertible", 2, None, 0, (1, 1, 6, 168, 20160, 9999360), "A002884"
    ),
    RegressionEntry(
        "subspaces_total",
        2,
        None,
        0,
        (1, 2, 5, 16, 67, 374, 2825, 29212, 417199),
        "A006116",
    ),
    RegressionEntry(
        "qfactorial",
        2,
        None,
        0,
        (1, 1, 3, 21, 315, 9765, 615195, 78129765, 19923090075),
        "A005329",
    ),
    RegressionEntry(
        "qbell", 2, None, 1, (1, 4, 57, 2921, 540145, 364558049), "bell analogue"
    ),
    RegressionEntry(
        "lin_derangement", 2, None, 0, (1, 0, 2, 48, 5824, 2887680), "A002820"
    ),
    RegressionEntry(
        "proj_derangement",
        3,
        None,
        1,
        (0, 18, 3456, 7619508, 149200289280),
        "eigenvalue-free count",
    ),
    RegressionEntry(
        "diagonalizable",
        2,
        None,
        1,
        # last term re-derived: the printed list carries an extra digit
        # (196144424834); the summation formula, the generating function
        # and the splitting-number identity all give 19614424834
        (2, 8, 58, 802, 20834, 1051586, 102233986, 19614424834),
        "diagonalizable count",
    ),
    RegressionEntry(
        "diagonalizable",
        3,
        None,
        1,
        (3, 39, 2109, 417153, 346720179),
        "diagonalizable count",
    ),
    RegressionEntry(
        "projection",
        2,
        None,
        1,
        # last term re-derived as for the diagonalizable list above
        (2, 8, 58, 802, 20834, 1051586, 102233986, 19614424834),
        "projection count",
    ),
    RegressionEntry(
        "projection",
        3,
        None,
        0,
        (1, 2, 14, 236, 12692, 1783784, 811523288, 995733306992),
        "A053846",
    ),
    RegressionEntry(
        "power_identity",
        2,
        2,
        1,
        (1, 4, 22, 316, 6976, 373024, 32252032, 6619979776),
        "A053722",
    ),
    RegressionEntry(
        "power_identity",
        4,
        2,
        1,
        (1, 16, 316, 69616, 21999616, 74351051776, 374910580965376),
        "A053856",
    ),
    RegressionEntry(
        "power_identity",
        2,
        3,
        1,
        (1, 3, 57, 1233, 75393, 19109889, 6326835201, 6388287561729),
        "A053725",
    ),
    RegressionEntry(
        "power_identity", 4, 3, 1, (3, 63, 8739, 5790339, 25502129667), "A053857"
    ),
    RegressionEntry(
        "power_identity", 3, 8, 1, (2, 32, 4448, 3816128, 26288771456), "A053853"
    ),
    RegressionEntry(
        "nilpotent",
        2,
        None,
        0,
        (1, 1, 4, 64, 4096, 1048576, 1073741824),
        "A053763",
    ),
    RegressionEntry(
        "cyclic",
        2,
        None,
        1,
        (2, 14, 412, 50832, 25517184, 51759986688, 422000664182784),
        "cyclic count",
    ),
    RegressionEntry(
        "semisimple",
        2,
        None,
        1,
        (2, 10, 218, 25426, 11979362, 24071588290, 195647202043778),
        "semisimple count",
    ),
    RegressionEntry(
        "separable",
        2,
        None,
        1,
        (2, 8, 160, 22272, 9744384, 20309999616, 165823024988160),
        "separable count",
    ),
    RegressionEntry(
        "conjclasses_all",
        2,
        None,
        1,
        (2, 6, 14, 34, 74, 166, 350, 746, 1546, 3206),
        "A070933",
    ),
    RegressionEntry(
        "conjclasses_all",
        3,
        None,
        1,
        (3, 12, 39, 129, 399, 1245, 3783, 11514, 34734, 104754),
        "class count",
    ),
    RegressionEntry(
        "conjclasses_gl",
        2,
        None,
        1,
        (1, 3, 6, 14, 27, 60, 117, 246, 490, 1002),
        "A006951",
    ),
    RegressionEntry(
        "conjclasses_gl",
        3,
        None,
        1,
        (2, 8, 24, 78, 232, 720, 2152, 6528, 19578, 58944),
        "A006952",
    ),
    RegressionEntry(
        "max_class", 2, None, 1, (1, 3, 56, 3360, 833280, 959938560), "A070731"
    ),
    RegressionEntry(
        "min_centralizer",
        2,
        None,
        1,
        (1, 2, 3, 6, 12, 21, 42, 84, 147, 294),
        "A082877",
    ),
    RegressionEntry(
        "qbinom_row",
        2,
        None,
        0,
        (
            (1,),
            (1, 1),
            (1, 3, 1),
            (1, 7, 7, 1),
            (1, 15, 35, 15, 1),
            (1, 31, 155, 155, 31, 1),
            (1, 63, 651, 1395, 651, 63, 1),
        ),
        "A022166",
    ),
    RegressionEntry(
        "qstirling_row",
        2,
        None,
        1,
        (
            (1,),
            (1, 3),
            (1, 28, 28),
            (1, 400, 1680, 840),
            (1, 10416, 168640, 277760, 83328),
            (1, 525792, 36053248, 159989760, 139991040, 27998208),
        ),
        "splitting triangle",
    ),
    RegressionEntry(
        "rank_row",
        2,
        None,
        0,
        (
            (1,),
            (1, 1),
            (1, 9, 6),
            (1, 49, 294, 168),
            (1, 225, 7350, 37800, 20160),
            (1, 961, 144150, 4036200, 19373760, 9999360),
        ),
        "rank triangle",
    ),
)


# d_2 = (q^4 - q^2 + 2q) / 2 evaluated at small prime powers
DIAGONALIZABLE_D2: tuple[tuple[int, int], ...] = (
    (2, 8),
    (3, 39),
    (4, 124),
    (5, 305),
    (7, 1183),
    (8, 2024),
    (9, 3249),
)
