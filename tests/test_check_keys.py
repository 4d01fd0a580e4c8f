"""Checkpoint-key stability: golden digests + the lint rule pinning them.

``sweep_key`` is the identity of every resumable sweep journal. Two
independent guards keep it stable:

* golden-key fixtures — known ``(scheme, fingerprint, options) -> key``
  tuples hard-coded here; any change to the digest inputs or the
  serialization breaks them;
* the ``code.checkpoint-key`` lint rule — fires on *source* edits to
  the function (parameter tuple, payload dict keys, ``sort_keys``)
  even before a behavioral test runs.

A deliberate key-format break must update both, which is the point.
"""

import textwrap

from repro.check.lint import (
    SWEEP_KEY_PARAMS,
    SWEEP_KEY_PAYLOAD_KEYS,
    lint_paths,
    lint_source,
)
from repro.runtime.durable import sweep_key

#: Known-good digests. If one of these fails, the checkpoint key format
#: changed and every existing sweep journal is orphaned — only proceed
#: if that is the intent, and update the goldens in the same commit.
GOLDEN_KEYS = [
    (("gshare", "0000000000000000", (6,)), {}, "ada1aa2ac2bce9d4"),
    (("pas", "deadbeefcafe0123", (4, 6, 8)), {}, "fa34628f59ec51e6"),
    (
        ("gas", "feedface00112233", tuple(range(4, 16))),
        {},
        "91d8612215bc0867",
    ),
    (
        ("pas", "deadbeefcafe0123", (4, 6, 8)),
        {"bht_entries": 512, "bht_assoc": 4},
        "8c04d7d1696677ab",
    ),
    (
        ("gshare", "0000000000000000", (6,)),
        {"row_bits_filter": (0, 2)},
        "77635a95774a2100",
    ),
]


class TestGoldenKeys:
    def test_known_tuples_digest_identically(self):
        for args, kwargs, expected in GOLDEN_KEYS:
            assert sweep_key(*args, **kwargs) == expected, (args, kwargs)

    def test_engine_is_excluded_from_the_key(self):
        # A sweep begun vectorized may finish on the reference engine;
        # the key must not fork on the engine choice.
        base = sweep_key("pas", "deadbeefcafe0123", [4, 6, 8])
        assert (
            sweep_key(
                "pas", "deadbeefcafe0123", [4, 6, 8], engine="reference"
            )
            == base
        )

    def test_size_bits_order_is_canonicalized(self):
        assert sweep_key("gas", "feedface00112233", [8, 4, 6]) == sweep_key(
            "gas", "feedface00112233", [4, 6, 8]
        )


def lint_checkpoint(source):
    return lint_source(
        textwrap.dedent(source),
        filename="runtime/durable.py",
        is_checkpoint=True,
    )


#: A minimal sweep_key that satisfies every pin.
CLEAN_SWEEP_KEY = """
    import hashlib
    import json

    def sweep_key(scheme, trace_fingerprint, size_bits, bht_entries=None,
                  bht_assoc=4, engine="auto", row_bits_filter=None):
        payload = json.dumps(
            {
                "scheme": scheme,
                "trace": trace_fingerprint,
                "size_bits": sorted(size_bits),
                "bht_entries": bht_entries,
                "bht_assoc": bht_assoc,
                "row_bits_filter": row_bits_filter,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
    """


class TestCheckpointKeyRule:
    def test_pinned_shape_is_clean(self):
        assert lint_checkpoint(CLEAN_SWEEP_KEY) == []

    def test_parameter_reorder_fires(self):
        reordered = CLEAN_SWEEP_KEY.replace(
            "scheme, trace_fingerprint, size_bits",
            "trace_fingerprint, scheme, size_bits",
        )
        findings = lint_checkpoint(reordered)
        assert [f.check for f in findings] == ["code.checkpoint-key"]
        assert findings[0].severity == "error"
        assert str(SWEEP_KEY_PARAMS) in findings[0].why

    def test_payload_key_change_fires(self):
        renamed = CLEAN_SWEEP_KEY.replace('"trace":', '"fingerprint":')
        findings = lint_checkpoint(renamed)
        assert [f.check for f in findings] == ["code.checkpoint-key"]
        assert str(SWEEP_KEY_PAYLOAD_KEYS) in findings[0].why

    def test_extra_payload_key_fires(self):
        widened = CLEAN_SWEEP_KEY.replace(
            '"row_bits_filter": row_bits_filter,',
            '"row_bits_filter": row_bits_filter,\n'
            '                "engine": engine,',
        )
        findings = lint_checkpoint(widened)
        assert [f.check for f in findings] == ["code.checkpoint-key"]

    def test_dropping_sort_keys_fires(self):
        unsorted = CLEAN_SWEEP_KEY.replace(
            ",\n            sort_keys=True,\n        )", ",\n        )"
        )
        findings = lint_checkpoint(unsorted)
        assert [f.check for f in findings] == ["code.checkpoint-key"]
        assert "sort_keys" in findings[0].why

    def test_rule_needs_the_checkpoint_flag(self):
        # The same source in an ordinary module defines its own
        # sweep_key legitimately (e.g. a test fixture).
        reordered = CLEAN_SWEEP_KEY.replace(
            "scheme, trace_fingerprint, size_bits",
            "trace_fingerprint, scheme, size_bits",
        )
        assert (
            lint_source(
                textwrap.dedent(reordered), filename="fixture.py"
            )
            == []
        )

    def test_real_checkpoint_module_matches_the_pin(self):
        findings = [
            f
            for f in lint_paths()
            if f.check == "code.checkpoint-key"
        ]
        assert findings == [], [f.render() for f in findings]
