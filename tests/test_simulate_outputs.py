"""``wiretap3 simulate --format json`` pinned byte for byte, one small config per scheme.

The simulator is seeded, so a (config, seed) pair prints the same bytes on
every run; a kernel rewrite that keeps every float and every draw must keep
them.  The pins were taken with numpy's bundled OpenBLAS on x86-64.  Monte
Carlo scores count joint types in a 0/1 matrix product, exact in any
summation order, so their pins hold on any BLAS build; the exact
split-half equivocation sums real products through BLAS, and another build
may round those sums differently.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wiretap3.cli import main

SPEC = Path(__file__).resolve().parents[1] / "docs" / "examples" / "multilevel_product.chan"

IDENTITY = {"pattern": "wiretap", "sizes": {"V": 2, "X": 2},
            "tables": [[[0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]}
SATELLITES = {"pattern": "wiretap", "sizes": {"V": 2, "X": 2},
              "tables": [[[0.5, 0.5]], [[0.6, 0.4], [0.3, 0.7]]]}
CLOUD = {"pattern": "wiretap", "sizes": {"V": 2, "X": 4},
         "tables": [[[0.5, 0.5]], [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]]}
THEOREM1 = {"pattern": "theorem1", "sizes": {"Q": 1, "V0": 2, "V1": 2, "V2": 2, "X": 2},
            "tables": [[[1.0]], [[0.45, 0.55]],
                       [[0.42, 0.18, 0.28, 0.12], [0.12, 0.28, 0.18, 0.42]],
                       [[0.85, 0.15], [0.85, 0.15], [0.2, 0.8], [0.2, 0.8],
                        [0.7, 0.3], [0.7, 0.3], [0.35, 0.65], [0.35, 0.65]]]}
BSC = {"matrix": [[0.8, 0.2], [0.2, 0.8]]}
DECODE = {"scheme": "decode", "spec": str(SPEC), "dist": CLOUD, "channel": "to_y1",
          "rates": {"message": 0.75, "total": 0.75, "satellite": 0.25},
          "n": [4, 8], "epsilon": 2.0, "trials": 150}

CONFIGS = {
    "wiretap_exact": {
        "scheme": "wiretap-equivocation", "dist": SATELLITES, "channel": BSC,
        "rates": {"message": 0.25, "total": 0.5, "satellite": 0.25},
        "n": [4, 8], "epsilon": 0.5, "trials": 0,
    },
    "wiretap_mc_n16": {
        "scheme": "wiretap-equivocation", "dist": IDENTITY, "channel": BSC,
        "rates": {"message": 0.25, "total": 0.5}, "n": [16], "epsilon": 0.5, "trials": 200,
    },
    # the erasure channel has zeros, so its scores take the dead-position path
    "wiretap_mc_erasure": {
        "scheme": "wiretap-equivocation", "dist": IDENTITY,
        "channel": {"matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]},
        "rates": {"message": 0.25, "total": 0.5}, "n": [12], "epsilon": 0.5, "trials": 200,
    },
    # 4,096 and 1,024 codewords: 64 trials are several blocks of the score buffer
    "wiretap_mc_n24": {
        "scheme": "wiretap-equivocation", "dist": IDENTITY, "channel": BSC,
        "rates": {"message": 0.25, "total": 0.5}, "n": [24], "epsilon": 0.5, "trials": 64,
    },
    "wiretap_mc_erasure_n20": {
        "scheme": "wiretap-equivocation", "dist": IDENTITY,
        "channel": {"matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]},
        "rates": {"message": 0.25, "total": 0.5}, "n": [20], "epsilon": 0.5, "trials": 64,
    },
    "wiretap_mc_n1200": {
        "scheme": "wiretap-equivocation", "dist": IDENTITY,
        # so noisy that the scores are not all 0 even at this n
        "channel": {"matrix": [[0.501, 0.499], [0.499, 0.501]]},
        "rates": {"message": 0.002, "total": 0.004}, "n": [1200], "epsilon": 0.5, "trials": 20,
    },
    "marton_exact": {
        "scheme": "marton-equivocation", "dist": THEOREM1, "channel": BSC,
        "rates": {"message": 0.25, "total": 0.5, "t1": 0.5, "t2": 0.5, "b1": 0.25, "b2": 0.25},
        "n": [4, 6], "epsilon": 8.0,
    },
    "decode_direct": {**DECODE, "decoder": "direct"},
    "decode_indirect": {**DECODE, "decoder": "indirect"},
    "lemma1": {
        "scheme": "lemma1",
        "dist": {"sizes": {"U": 2, "V": 2, "Z": 2}, "chain": [
            {"targets": ["U"], "given": [], "table": [[0.5, 0.5]]},
            {"targets": ["V"], "given": ["U"], "table": [[0.75, 0.25], [0.25, 0.75]]},
            {"targets": ["Z"], "given": ["V"], "table": [[0.75, 0.25], [0.25, 0.75]]},
        ]},
        "s_rate": 0.443, "n": [6, 8], "epsilon": 2.0, "trials": 150,
    },
}

# The two Monte Carlo BSC pins moved in their last bits when scores went from a BLAS
# sum of n log-likelihoods to joint-type counts, whose folded sums round
# differently: equivocation_rate 0.17805610517382128 -> 0.1780561051738213 (n16)
# and 0.0025047141735553544 -> 0.002504714173555348 (n1200).  The erasure pin
# kept its bytes: there every finite score is a sum of integer logs.  The n24 and
# erasure_n20 pins were taken before the scores moved into one reused buffer with
# larger blocks, which kept every bit.
SIMULATE_JSON_SHA256 = {
    "wiretap_exact": "f30852255acf9af13c4b0af4dd30550b1e9fb3155bbca02a3c04ff0ce8d3a0de",
    "wiretap_mc_n16": "64e1d02deb16e40ba06afb3bf98b74516c93f7d775cc7d7d52ba5dc14ec82b20",
    "wiretap_mc_erasure": "08ae7fd2b33f62d2ac7da0ab42abbba9eccb1582b5340a3189b234ebb69b6828",
    "wiretap_mc_n24": "324036145492af5aae3ad40be748a739a0d6f323ef5b339a15f4bfc14ed2137f",
    "wiretap_mc_erasure_n20": "cd52e23463e52b397bb9ed85d3c7b795ed7cb6544c696850d0f48409738b098d",
    "wiretap_mc_n1200": "16300a8e732fb832d439311c38821bbdb8951b9be0849075592622ad391a5129",
    "marton_exact": "82e0a4045b311f34dfcab536a9537164a264f98c6e95ccf250607c29c74b0c4f",
    "decode_direct": "94b6fd99b0128ec058714b70f5aebed9c55469a9ac518e6b70f20e40de45c4c1",
    "decode_indirect": "778d1f0f54d0a0bb7bf9c2c80518ce3e62c96febf0dc1db44913500cdca6cd17",
    "lemma1": "b15948065961bcb99158404b892873586056fa68ad503bc46104e309431cab8b",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_json_is_byte_identical(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    assert main(["simulate", "--config", str(path), "--seed", "5", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SIMULATE_JSON_SHA256[name]
