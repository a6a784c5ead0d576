"""Golden digests of the shipped outputs: the LFP+LU catalogues as JSON and
CSV, and the stdout and exit code of `ffe verify-appendix`.

A digest pins the output byte for byte; it does not prove the output right,
which is the job of the oracles in the other tests. A digest changes only
together with a note in CHANGES.md that says which output changed and why.

The JSON holds singular values that are round-off of an exact 0, at most
1.12e-8 (3, 158, 8 and 19 of them in the four catalogues below). They come
from the libm calls (atan2, cos, sin) of the Jacobi eigenvalue routine, so
the JSON digests hold for this platform's libm. The CSV prints five decimals
and does not depend on them.
"""
import hashlib

import pytest

from ffe.cli import EXIT_OK, main

# fixture name (`ffe classify` arguments): format -> (sha256, length in bytes)
CATALOGUE_DIGESTS = {
    "cat3_all": {  # --d 3 --lu
        "json": ("aa254b15e52cd0db305811380c5af8f92d72e4f9a071b04ee0c60c67151d70ec", 300335),
        "csv": ("a28f58ec2075eb645cec7a64d026bbaeed112f9dc46b8c405852851a45165806", 718),
    },
    "cat4_full": {  # --d 4 --lu
        "json": ("70f551c7f61554083e719a39f8636f9c70d3fdd243dd198c93d38afecb6cdf1f", 1178497),
        "csv": ("49de8cf1c5891a31959fd1af62cf3859c33777a13e840df3e65960eb324addda", 72266),
    },
    "cat4_teh": {  # --d 4 --scope teh --lu
        "json": ("ce930b556776d05e37011e24aa3366f1b9a0fed64007fa918e09e2c0df16d346", 772102),
        "csv": ("20f3c86f289296e1312a1b3777526eb273829bd3d3c1dc0a1cc8977a9befaf1d", 1823),
    },
    "cat6_teh": {  # --d 6 --scope teh --lu
        "json": ("1cebb2f13f0fc0b44a96a95f962f2db4ccdc4a1da3ca9c7b23e384a32abc9ee0", 2780914),
        "csv": ("f1c4acfc9bff05d621107122e6b0a2fafb0be977e76ff5e9b08f64a80f9e2904", 3403),
    },
}

APPENDIX_STDOUT = {
    3: "d=3 conformance checks: 39/39 passed\n",
    4: "d=4 conformance checks: 55/55 passed\n"
    "note: summary text says 15 polynomial-scope classes; the per-class listing "
    "has 17, which the computation reproduces\n",
    6: "d=6 conformance checks: 88/88 passed\n"
    "note: the per-class listing has 28 entries (summary table says 27), but 10 "
    "pairs of listed classes are transposes of each other and equivalent under "
    "row/column operations, leaving 18 genuine classes\n",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CATALOGUE_DIGESTS))
def test_catalogue_digest(request, name, fmt):
    cat = request.getfixturevalue(name)
    payload = (cat.to_json() if fmt == "json" else cat.to_csv()).encode()
    assert (hashlib.sha256(payload).hexdigest(), len(payload)) == CATALOGUE_DIGESTS[name][fmt]


@pytest.mark.parametrize("d", sorted(APPENDIX_STDOUT))
def test_verify_appendix_stdout(capsys, d):
    code = main(["verify-appendix", "--d", str(d)])
    assert (code, capsys.readouterr().out) == (EXIT_OK, APPENDIX_STDOUT[d])
