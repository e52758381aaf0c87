"""Frozen expected values used across the test suite.

PAIR_COUNTS maps length n to (seqs, all, inequiv): the number of distinct
sequences appearing in any Golay pair, the total number of ordered Golay
pairs, and the number of equivalence classes.  CANDIDATE_COUNTS maps n to
(n_even, n_odd, n_joined): the surviving even-half and odd-half candidate
list sizes after preprocessing and the joined-candidate list size after
the stage-1 filters (None where a list is empty and was not tabulated).

Values for small n were derived from the brute-force oracle before the
pipeline existed; the rest are the frozen reference counts the acceptance
suite pins.
"""

PAIR_COUNTS = {
    1: (4, 16, 1),
    2: (16, 64, 1),
    3: (16, 128, 1),
    4: (64, 512, 2),
    5: (64, 512, 1),
    6: (256, 2048, 3),
    7: (0, 0, 0),
    8: (768, 6656, 17),
    9: (0, 0, 0),
    10: (1536, 12288, 20),
    11: (64, 512, 1),
    12: (4608, 36864, 52),
    13: (64, 512, 1),
    14: (0, 0, 0),
    15: (0, 0, 0),
    16: (13312, 106496, 204),
    17: (0, 0, 0),
    18: (3072, 24576, 24),
    19: (0, 0, 0),
    20: (26880, 215040, 340),
    21: (0, 0, 0),
    22: (1024, 8192, 12),
    23: (0, 0, 0),
    24: (98304, 786432, 1056),
    25: (0, 0, 0),
}

CANDIDATE_COUNTS = {
    1: (1, None, 1),
    2: (1, 1, 1),
    3: (3, 1, 1),
    4: (3, 4, 3),
    5: (12, 4, 5),
    6: (12, 16, 14),
    7: (39, 16, 12),
    8: (48, 64, 36),
    9: (153, 64, 44),
    10: (153, 204, 120),
    11: (561, 252, 101),
    12: (645, 860, 465),
    13: (2121, 884, 293),
    14: (2463, 3284, 317),
    15: (8340, 3572, 1793),
    16: (9087, 12116, 923),
    17: (31275, 12824, 3710),
    18: (34560, 46080, 14353),
    19: (117597, 50944, 10918),
    20: (130215, 173620, 26869),
    21: (446052, 194004, 116612),
}

# Number of Golay pairs in normalized form (first member normalized,
# second member leading entry 1), derived from the brute-force oracle.
NORMALIZED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 6, 6: 28, 7: 0}
