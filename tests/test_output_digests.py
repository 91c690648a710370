"""SHA-256 of the stdout and the exit code of every benchmark command line.

The argv are the ones the benchmark's workload generator gives for seeds 1-3,
with the ``--format csv`` variants of the reports, copied in as literals. Each
runs in-process through ``cli.main``; a change that alters one byte of a
report or a dump changes its digest. ``--help`` is left out: argparse wraps
its text to the terminal width.
"""

import contextlib
import hashlib

import pytest

from bosepauli import cli

DIGESTS = (
    ('verify --dims 2,4,8,16,32,64,128,256 --ls 12,10,4,9,11,1', 0, 'dbd2423db98aeec030d14fd95074a60c9bfc91a126f7b579f33920c4be5abb05'),
    ('verify --dims 2,4,8,16,32,64,128,256 --ls 12,10,4,9,11,1 --format csv', 0, 'ffb9e98e0d0be86b501f93257372722db4d6863b8af6d50edf3cf082efdeb842'),
    ('verify --dims 512 --ls 12,5', 0, 'bd6e50c3014e48070836b9cb387ec3250beddccb52a05ce964579097aaef2a6b'),
    ('verify --dims 512 --ls 12,5 --format csv', 0, '1737192754a1822dd65873501e9e1358a224bd5315eada99f9b361d3fc5eb490'),
    ('quadrature --dim 64 --radial 64 --angular 256 --variants even-plain,odd-phased,even-phased,odd-plain', 0, '7022427beab816faee5c14e03435c543f3ce1ba7c08393e16444e077b8b8349f'),
    ('quadrature --dim 64 --radial 64 --angular 256 --variants even-plain,odd-phased,even-phased,odd-plain --format csv', 0, '8b973faafa31ba0838935d3e46ff3b4ef3bc6af03ee45b87d8d6f1be7d30351a'),
    ('quadrature --dim 64 --radial 8 --angular 16 --variants even-plain,odd-phased,even-phased,odd-plain', 1, 'd441ee987f172957c13ee2113f01b42531d0783c7c398085e8bdde2ff3771f93'),
    ('quadrature --dim 64 --radial 8 --angular 16 --variants even-plain,odd-phased,even-phased,odd-plain --format csv', 1, 'e6c3bcb94f7884ccc3c822c71894d75c92c438f28b61f9c3f28e26f263ebab0e'),
    ('quadrature --dim 2 --radial 189 --angular 4 --variants even-plain,odd-phased,even-phased,odd-plain', 0, 'fbb336db63c3b577fb7ef4a0f548421e9c54f1bcc8aa25c432778c52daf7a800'),
    ('quadrature --dim 2 --radial 189 --angular 4 --variants even-plain,odd-phased,even-phased,odd-plain --format csv', 0, '2103cb7ee2d402e8501153d4e2975c597558c230a5d0fdae841115a0d2a54125'),
    ('dump --op sigma_minus --dim 1024 --l 3 --format json', 0, '603daca29076df3242dbec864d03c991e46f5760e56682b67e563fcde18455a6'),
    ('dump --op sigma_plus --dim 1024 --l 1 --format csv', 0, '3a53ca61791f99b8cef2571153148d8a5174f0d8392707b67e59a1a03d9e6a4b'),
    ('dump --op p_even --dim 512 --l 8 --format json', 0, 'c70a019e011c12dc2e0b2d0380c47c625b753cbb45f4742b3458b681dfc2673f'),
    ('grassmann --dims 256,512,1024 --ls 2,9', 0, 'c4388add234b6606ee1d6ba64e456b938629cf58b71b71debacf72f2bd176bf2'),
    ('grassmann --dims 256,512,1024 --ls 2,9 --format csv', 0, '14c43da3a1141d052d8314cd6aa144b54ef1b701620ad377b2a65d93cb464f42'),
    ('verify --dims 2,4,8,16,32,64,128,256 --ls 8,9,7,6,10,12', 0, 'a0b133fef977ad73161d4424e1a5f66fbf5ba5cd458612e3310350a761f62f74'),
    ('verify --dims 2,4,8,16,32,64,128,256 --ls 8,9,7,6,10,12 --format csv', 0, '7586d1bc5e2fe71d7988df04a3672538fb0c4bccbc2a1571ebb4a48a5e691832'),
    ('verify --dims 512 --ls 6,11', 0, '7c7794da1968ae7b0b7502c45d099ec72f2b6deaedf6252e4e05601bc7834722'),
    ('verify --dims 512 --ls 6,11 --format csv', 0, 'c1a12fe9218159adf41d34e22ed90e53b88449f072578827e35aa65bf818f561'),
    ('quadrature --dim 64 --radial 64 --angular 256 --variants even-phased,odd-plain,even-plain,odd-phased', 0, '7022427beab816faee5c14e03435c543f3ce1ba7c08393e16444e077b8b8349f'),
    ('quadrature --dim 64 --radial 64 --angular 256 --variants even-phased,odd-plain,even-plain,odd-phased --format csv', 0, '8b973faafa31ba0838935d3e46ff3b4ef3bc6af03ee45b87d8d6f1be7d30351a'),
    ('quadrature --dim 64 --radial 8 --angular 16 --variants even-phased,odd-plain,even-plain,odd-phased', 1, 'd441ee987f172957c13ee2113f01b42531d0783c7c398085e8bdde2ff3771f93'),
    ('quadrature --dim 64 --radial 8 --angular 16 --variants even-phased,odd-plain,even-plain,odd-phased --format csv', 1, 'e6c3bcb94f7884ccc3c822c71894d75c92c438f28b61f9c3f28e26f263ebab0e'),
    ('quadrature --dim 2 --radial 189 --angular 4 --variants even-phased,odd-plain,even-plain,odd-phased', 0, 'fbb336db63c3b577fb7ef4a0f548421e9c54f1bcc8aa25c432778c52daf7a800'),
    ('quadrature --dim 2 --radial 189 --angular 4 --variants even-phased,odd-plain,even-plain,odd-phased --format csv', 0, '2103cb7ee2d402e8501153d4e2975c597558c230a5d0fdae841115a0d2a54125'),
    ('dump --op sigma_minus --dim 1024 --l 1 --format json', 0, '603daca29076df3242dbec864d03c991e46f5760e56682b67e563fcde18455a6'),
    ('dump --op sigma_plus --dim 1024 --l 12 --format csv', 0, '550a7495a21ccf382be23446e9fc669e57af0dd343b93730f198df83c89a5d86'),
    ('dump --op p_odd --dim 512 --l 9 --format json', 0, '5a0a674efb35ea28ced8cf3ca8e7c6504a2ba5cb8b112912e9c163f16ec555f7'),
    ('grassmann --dims 256,512,1024 --ls 3,12', 0, '535241bfff91bd926b5166c280bac85eda4f94e4bbced279d749d8945cb78729'),
    ('grassmann --dims 256,512,1024 --ls 3,12 --format csv', 0, 'dd5259f1fc25f17c12a313dfb9a18514342cf87a761cbe4bfff72be27e489468'),
    ('verify --dims 2,4,8,16,32,64,128,256 --ls 7,1,4,6,12,2', 0, '4683b37a33842b9e39a993baa44561f6fd62a47289268d9e993acf50f969ef29'),
    ('verify --dims 2,4,8,16,32,64,128,256 --ls 7,1,4,6,12,2 --format csv', 0, '8b1778e176c48d274b23ebf5c7042dfe41a755b1a24cd09e00770a790772827e'),
    ('verify --dims 512 --ls 8,11', 0, 'be6d0bfada4b77c8529d3bebbfb158b020e6e5052d1967bc56d502b7cb522bed'),
    ('verify --dims 512 --ls 8,11 --format csv', 0, 'b56df0eab479321a58741764b622b6ed11e0b6679e02cf4ed286f1b94849d3da'),
    ('quadrature --dim 64 --radial 64 --angular 256 --variants even-plain,odd-phased,even-phased,odd-plain', 0, '7022427beab816faee5c14e03435c543f3ce1ba7c08393e16444e077b8b8349f'),
    ('quadrature --dim 64 --radial 64 --angular 256 --variants even-plain,odd-phased,even-phased,odd-plain --format csv', 0, '8b973faafa31ba0838935d3e46ff3b4ef3bc6af03ee45b87d8d6f1be7d30351a'),
    ('quadrature --dim 64 --radial 8 --angular 16 --variants even-plain,odd-phased,even-phased,odd-plain', 1, 'd441ee987f172957c13ee2113f01b42531d0783c7c398085e8bdde2ff3771f93'),
    ('quadrature --dim 64 --radial 8 --angular 16 --variants even-plain,odd-phased,even-phased,odd-plain --format csv', 1, 'e6c3bcb94f7884ccc3c822c71894d75c92c438f28b61f9c3f28e26f263ebab0e'),
    ('quadrature --dim 2 --radial 189 --angular 4 --variants even-plain,odd-phased,even-phased,odd-plain', 0, 'fbb336db63c3b577fb7ef4a0f548421e9c54f1bcc8aa25c432778c52daf7a800'),
    ('quadrature --dim 2 --radial 189 --angular 4 --variants even-plain,odd-phased,even-phased,odd-plain --format csv', 0, '2103cb7ee2d402e8501153d4e2975c597558c230a5d0fdae841115a0d2a54125'),
    ('dump --op sigma_minus --dim 1024 --l 11 --format json', 0, '603daca29076df3242dbec864d03c991e46f5760e56682b67e563fcde18455a6'),
    ('dump --op sigma_plus --dim 1024 --l 4 --format csv', 0, '550a7495a21ccf382be23446e9fc669e57af0dd343b93730f198df83c89a5d86'),
    ('dump --op p_odd --dim 512 --l 10 --format json', 0, '5a0a674efb35ea28ced8cf3ca8e7c6504a2ba5cb8b112912e9c163f16ec555f7'),
    ('grassmann --dims 256,512,1024 --ls 7,4', 0, 'f4408167dc36fa3f15df8f3e89076c73c1d7c1410f617586c425f299a42beb5a'),
    ('grassmann --dims 256,512,1024 --ls 7,4 --format csv', 0, '37b0039fec7c6a2b2b85cc83eb9d2d00ca8855b5f71b67ca2c513d67e742d68e'),
)


class _Sha256Writer:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, code, digest", DIGESTS, ids=[argv for argv, _, _ in DIGESTS])
def test_benchmark_argv_write_the_pinned_bytes(argv, code, digest):
    out = _Sha256Writer()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == code
    assert out.hash.hexdigest() == digest
