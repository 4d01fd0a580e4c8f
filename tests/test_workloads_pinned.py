"""Pinned bytes of the synthetic workloads.

Every stored trace, result artifact and e2e golden is keyed by the
bytes the generator emits, so any change to ``build_program`` or
``generate_trace`` must leave them byte-for-byte unchanged. The sha256
digests below were recorded from the generator before it walked
invocations in batches; a rewrite of either function must reproduce
every one.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads import PAPER_BENCHMARKS, build_program, generate_trace, get_profile


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in ("pc", "taken", "target"):
        array = getattr(trace, name)
        h.update(name.encode())
        h.update(str(array.dtype).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def program_digest(program) -> str:
    """Digest of a program's structure: every field the walker reads."""
    h = hashlib.sha256()
    for routine in program.routines:
        h.update(f"routine {routine.index} {routine.base} {routine.mean_trips!r}".encode())
        for branch in routine.branches:
            h.update(
                f"{branch.pc} {branch.taken_target} {branch.weight!r} "
                f"{branch.behavior!r} {branch.inclusion!r} "
                f"{branch.inclusion_mode} {branch.is_backedge}\n".encode()
            )
    for members, probs in program.phases:
        h.update(np.asarray(members, dtype="<i8").tobytes())
        h.update(np.asarray(probs, dtype="<f8").tobytes())
    return h.hexdigest()


#: (profile, seed) -> (program digest, 3,000-branch trace digest); the
#: seed is both the structure seed and the trace seed.
PINNED = {
    ("groff", 0): (
        "aea71a93f91b7e9bb56945260e3552fd24213111a19a92434f0c35970d9b9ecf",
        "549056f80efcc7f520ab5d627b6e603a0aa8d9b614bce9ae334b04d687c2c132",
    ),
    ("groff", 1): (
        "2ccbb876718e86b9632f1bc8f6d52977977ec9caaa8374cf05fe7057a5a5f40d",
        "75b03d8c4c7801b5fe7752e0c23360e40298f54b2ea9d6dfe9fbc1308fcc709e",
    ),
    ("gs", 0): (
        "d28439c904b67f330786b5f3424d77bcee03454d1d1ceb1e0a1c9514e8473256",
        "8c23f6520285fca76135b01799843c0dacb6ff04f3bf3e5ccc0f478a69f93a7e",
    ),
    ("gs", 1): (
        "3c6ff2998f80198c0fae578c517d01588235fbecccd289ccc8a8616e831fffdb",
        "66b76f5e866659c9a76f3973a042ecf47d587ba7f5ec1b2a1fba7baa3526b730",
    ),
    ("mpeg_play", 0): (
        "147ecf23f9f692316c433cfa1ae3ce8e68995d098f9e39cabc2fac2dde6ff0db",
        "833ee226f3582e86a415832cbbea049b7e76978346bb00dec424e53b7ebc4223",
    ),
    ("mpeg_play", 1): (
        "7110b70adf0c1ac8a3662a109978f4a417658aa6b9c20588e41de5afe97c8fae",
        "70b86593441a89615bf67df8f4d64c026b033920fccd0ed071f7252ac2a0edff",
    ),
    ("nroff", 0): (
        "a9061f30d86372fb7dc01137ddc1f4d825680607b15b3c242fcfa4b0e1a95b49",
        "740e9db6323bda5c28b8f67091ad4949b087711c60bf36bff6f03ea8a5e3358e",
    ),
    ("nroff", 1): (
        "e72c5c7267a75f6b9500337d661de5e3e7169f54b550b2bb770256ad7f079154",
        "028c6b21321fc352d8d54e56ccb0c21b144896027adf9395b0a88c37a00ce96d",
    ),
    ("real_gcc", 0): (
        "0350c459be1902a26616cefc180f49b4286d8b23c5ae16da709ac319933ba568",
        "e3bb04d4e4488f38fe65d9a0bd1c952e444e9e5b3cfb5cb8fabad68387031ecb",
    ),
    ("real_gcc", 1): (
        "741d14080b55fd772285d1dffc97bb31231e095468084ec65f9dca14e8bc7266",
        "537b3eb135f87fef1fe3d48e4ca8586c21baaecadffa4d3d6b584858209d8870",
    ),
    ("sdet", 0): (
        "df5112910c31c9153630b4fe8218b966dedd69ec43809a622c73d8f4825e04d0",
        "243d311884e951f3d3035790f6780f25b760deae3ebebc5902f7754a1e11af46",
    ),
    ("sdet", 1): (
        "371393055cddff0ffc084afe5d2f8a50e14998014ad9fb9cf0d7260160047c8c",
        "dc71d1d970cc3b0cb7a6ad85c46ea97d0020e3550839ac3000702b4dd1491161",
    ),
    ("verilog", 0): (
        "e2562f9e483fcc9e595025d90c235b958bcd5ee4abd45f0210fb1c53eba71bab",
        "ddd6f48d463116d4957d755544bf1a760d0f8f6814d15baae4f58a9efc873c60",
    ),
    ("verilog", 1): (
        "552e6671b6ab078ce37e07e555657e9ef71b60ebc963e621da474d7576bc9c59",
        "bb469cff679ab515c342b57a2afdbf9d00354d3b4506fcba3adefddc07b7c01f",
    ),
    ("video_play", 0): (
        "8e896a73acfa47bff14cb9ab974ca001cc84d85c15c636fd12c8c74d84002c9b",
        "14309365cbb2918308b01f0462726d8624e0a1e00c05019ea978b52a214cc5ef",
    ),
    ("video_play", 1): (
        "6bb4ffc796ee547eae31be4545d176091a365b201357f94d82230a8a7b273474",
        "d243187d881f54a0c693d32a522b649fd9ece69392da307219013c95a99f52d6",
    ),
    ("compress", 0): (
        "755ac859cadf730be7030de42a9c41785a2a5eba39a170b83d1e7048f704e943",
        "8aed88753731394a41addde2402ba49115a3e4ceaee0bb2663494b0d357deed3",
    ),
    ("compress", 1): (
        "9ccba624e28123d74b8de6126c95d87ea8a191e083961c7fa491a49534c5e6ae",
        "50e632fe600f259798112cd95b771c444c146c5cef1ed9389700e534e1d06251",
    ),
    ("eqntott", 0): (
        "b1cfb87ba962ea8509b2a58cf456bb72159aaa72236caed8bd522a2f775c3cfd",
        "f9a47a3768eb91ed43c0b72c7eaa81bf792c48db6dfc2916de14d35dcf66bd51",
    ),
    ("eqntott", 1): (
        "fa4dd8361d945c86b070eb501ce027dacb5ee48138267736a61433adf0cf9a74",
        "bacdff6e4142d3c56ca48b7fa78633f7cb1823709b0daa817acef554dba883d0",
    ),
    ("espresso", 0): (
        "9893a0a068f2847ee7b82c1794e3aa28142ddc4488326419ba7d62f7b8af8286",
        "ae08ed0f47bb58d598be016d3eb2173cbbbd15dd41a8d9553ebd055016ba93e8",
    ),
    ("espresso", 1): (
        "9a534faf25f9c44ee6779ccbfc328546677075f28e88407e0829fd51adc04836",
        "479a62a838939c9b1b98721c3e2fc883c3d7b41f0d626f68db674bcc66c671fe",
    ),
    ("gcc", 0): (
        "64028be1803a763145eff5671fd8e0be5c29936e30c115122d25966ac186d435",
        "75c22352ab24dff9ef007c961937f1f6f9a8b06e6b473da2a76edc4b676a90e3",
    ),
    ("gcc", 1): (
        "93164875bfb742748f7c6c853fd4c5b10592b0c9daeaf0fd1ccf5082a1d45333",
        "770e69f758d0a003d3b60b9dae23fcfd290bd53cf13bab2aa25877ed77ee2eeb",
    ),
    ("sc", 0): (
        "35fd211e7f553077f140abbebcacb9ad16175d0a237ee4f74eb1b7abefa22755",
        "bbc88deecbbfaa31ef2f4171b2d12a8f2dcb6f088939fd1d61590eae1d35e8f1",
    ),
    ("sc", 1): (
        "73930d6f5e75c88362ff963b58717e8e4771feda0e3eef4a45bb9a3f0dcf90ad",
        "06de17179dfa9774912350e9e5006c1bc90a2c06a9b869edfc9bd9e301f8d293",
    ),
    ("xlisp", 0): (
        "f1471419f750222cebca7412d6e804c48d15523e6ae692b1ac790d12e2f2cabb",
        "c8fdc2233527e9603dc12518e885b0e4dcde66aa38f2cbf06ee368c3d60b485b",
    ),
    ("xlisp", 1): (
        "16a9cc7d1dbd2fb7f0bf4ce086dce005e91d0158df7529dd76590964458fa8bb",
        "033bddb7b9ee85eec1757a64f0baed32f2abb28cb55e9bb6fd2e08ef295a703e",
    ),
}

#: real_gcc, seed 0, 50,000 branches.
REAL_GCC_50K = "36007cff8221ff0534e4d1488d800c3a4262d52e0b7f5d94ba6d7088e33b6563"

_programs = {}


def program_for(name, seed):
    key = (name, seed)
    if key not in _programs:
        _programs[key] = build_program(get_profile(name), seed=seed)
    return _programs[key]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_program_and_trace_bytes_are_pinned(name, seed):
    program = program_for(name, seed)
    trace = generate_trace(program, length=3_000, seed=seed)
    assert (program_digest(program), trace_digest(trace)) == PINNED[(name, seed)]


def test_real_gcc_50k_is_pinned():
    trace = generate_trace(program_for("real_gcc", 0), length=50_000, seed=0)
    assert trace_digest(trace) == REAL_GCC_50K


@pytest.mark.parametrize("name", ["mpeg_play", "xlisp"])
def test_short_trace_is_prefix_of_longer(name):
    program = program_for(name, 0)
    for length in (1, 997, 4_000):
        short = generate_trace(program, length=length, seed=5)
        long = generate_trace(program, length=3 * length, seed=5)
        for field in ("pc", "taken", "target"):
            assert np.array_equal(getattr(short, field), getattr(long, field)[:length])
