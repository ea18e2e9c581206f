"""Additional crypto vectors and cross-cutting invariants."""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import ctr_xcrypt
from repro.crypto.ope import OPE, OpeParams
from repro.utils.rand import SystemRandomSource


class TestCtrMultiBlockVectors:
    """NIST SP 800-38A F.5.1: all four CTR-AES128 blocks."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    PLAIN = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710"
    )
    CIPHER = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee"
    )

    def test_four_block_message(self):
        assert ctr_xcrypt(AES(self.KEY), self.COUNTER, self.PLAIN) == self.CIPHER

    def test_partial_final_block(self):
        out = ctr_xcrypt(AES(self.KEY), self.COUNTER, self.PLAIN[:40])
        assert out == self.CIPHER[:40]


class TestCtrAes192Vectors(TestCtrMultiBlockVectors):
    """NIST SP 800-38A F.5.3: all four CTR-AES192 blocks."""

    KEY = bytes.fromhex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b")
    CIPHER = bytes.fromhex(
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050"
    )


class TestCtrAes256Vectors(TestCtrMultiBlockVectors):
    """NIST SP 800-38A F.5.5: all four CTR-AES256 blocks (the channel's and
    Vf's key size)."""

    KEY = bytes.fromhex(
        "603deb1015ca71be2b73aef0857d7781"
        "1f352c073b6108d72d9810a30914dff4"
    )
    CIPHER = bytes.fromhex(
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6"
    )


class TestCtrAgainstBlockCipher:
    """CTR output is the data XOR one ``encrypt_block`` per counter value."""

    @given(
        st.sampled_from([16, 24, 32]),
        st.integers(min_value=1, max_value=20),
        st.binary(max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_block_reference_across_wrap(self, key_size, back, data):
        cipher = AES(bytes(range(7, 7 + key_size)))
        counter = (1 << 128) - back
        keystream = b"".join(
            cipher.encrypt_block(((counter + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range((len(data) + 15) // 16)
        )
        expected = bytes(d ^ k for d, k in zip(data, keystream))
        assert ctr_xcrypt(cipher, counter.to_bytes(16, "big"), data) == expected

    def test_counts_one_block_per_sixteen_bytes(self):
        from repro.obs.instrument import counting

        with counting() as c:
            ctr_xcrypt(AES(bytes(32)), bytes(16), bytes(100))
        assert c.get("aes_block") == 7
        assert c.get("aes_key_schedule") == 1


class _RawBody:
    """A stand-in message whose encoding is exactly the given body."""

    def __init__(self, body: bytes) -> None:
        self.body = body

    def encode(self) -> bytes:
        return self.body


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.hexdigest()


class TestPinnedCiphertexts:
    """Wire bytes pinned to SHA-256 digests.

    The upload and channel-body digests are what the byte-oriented AES
    produced.  CTR is its own inverse, so a wrong but self-consistent
    keystream would pass every seal/open round trip and every Vf; only
    fixed bytes catch it.
    """

    #: SHA-256 over the datagrams of :meth:`test_secure_channel_datagrams`,
    #: MAC tags (and so the direction labels they bind) included.
    CHANNEL_DIGEST = "c0e91450f5ebf2f1ea6d661dc2022be24fbabd380e388e89be36c4371e8efd9e"
    #: The same digest over each datagram's IV and body only: the AES-CTR
    #: output, independent of what the MAC tag covers.
    CHANNEL_BODY_DIGEST = "f0d77570a7fe947d355c693d7f1f3bea9996e88da9ec502782e35f059d42ddd1"
    #: SHA-256 over the encoded uploads of :meth:`test_enrolled_uploads`.
    UPLOAD_DIGEST = "c86a2a7d2fbd6d2bbbee283a65605129e01ed10dc14a04941280e0ef4adfb727"

    def test_secure_channel_datagrams(self):
        from repro.net.channel import SecureChannel
        from repro.net.transport import InMemoryNetwork

        net = InMemoryNetwork()
        phone, server = net.endpoint("phone"), net.endpoint("server")
        rng = SystemRandomSource(seed=1401)
        key = rng.randbytes(32)
        to_server = SecureChannel(phone, "server", key, rng=rng)
        to_phone = SecureChannel(server, "phone", key, rng=rng)
        datagrams = []
        for size in (0, 1, 15, 16, 17, 1700):
            body = bytes((7 * i + size) & 0xFF for i in range(size))
            to_server.send(_RawBody(body))
            datagrams.append(server.recv()[1])
            to_phone.send(_RawBody(body[::-1]))
            datagrams.append(phone.recv()[1])
        assert _digest(d[:16] + d[48:] for d in datagrams) == (
            self.CHANNEL_BODY_DIGEST
        )
        assert _digest(datagrams) == self.CHANNEL_DIGEST

    def test_enrolled_uploads(self):
        from repro.datasets import INFOCOM06
        from repro.experiments.common import build_population, build_scheme
        from repro.net.messages import UploadMessage

        population = build_population(INFOCOM06, seed=1402)
        profiles = [u.profile for u in population.generate(12)]
        scheme = build_scheme(INFOCOM06, schema=population.schema, seed=1402)
        uploads, _ = scheme.enroll_population(
            profiles, backend="serial", seed=1402
        )
        encoded = [
            UploadMessage(payload=uploads[p.user_id]).encode() for p in profiles
        ]
        assert _digest(encoded) == self.UPLOAD_DIGEST


class TestOpeCrossInstance:
    def test_same_key_same_function_across_instances(self):
        params = OpeParams(plaintext_bits=20)
        key = b"cross-instance-key-32-bytes-pad!"
        a = OPE(key, params)
        b = OPE(key, params)
        for m in (0, 1, 123456, (1 << 20) - 1):
            assert a.encrypt(m) == b.encrypt(m)

    def test_different_params_different_function(self):
        key = b"cross-instance-key-32-bytes-pad!"
        narrow = OPE(key, OpeParams(plaintext_bits=16, expansion_bits=8))
        wide = OPE(key, OpeParams(plaintext_bits=16, expansion_bits=24))
        assert narrow.encrypt(1234) != wide.encrypt(1234)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_tiny_domains_bijective(self, bits):
        """On a fully enumerable domain, Enc is a strict order-isomorphism."""
        ope = OPE(b"tiny-domain-key-32-bytes-padding", OpeParams(plaintext_bits=bits))
        cts = [ope.encrypt(m) for m in range(1 << bits)]
        assert cts == sorted(cts)
        assert len(set(cts)) == len(cts)
        for m, c in enumerate(cts):
            assert ope.decrypt(c) == m


class TestSubkeyIndependence:
    """Purpose-bound subkeys never collide across purposes or keys."""

    def test_purposes_disjoint(self):
        from repro.core.keygen import ProfileKey

        key = ProfileKey(key=b"a" * 32, index=b"b" * 32)
        purposes = [b"ope", b"chain", b"auth", b"other"]
        outputs = {key.subkey(p) for p in purposes}
        assert len(outputs) == len(purposes)

    def test_keys_disjoint(self):
        from repro.core.keygen import ProfileKey

        k1 = ProfileKey(key=b"a" * 32, index=b"x" * 32)
        k2 = ProfileKey(key=b"c" * 32, index=b"y" * 32)
        assert k1.subkey(b"ope") != k2.subkey(b"ope")


class TestPaillierChains:
    def test_long_additive_chain(self):
        from repro.crypto.fixtures import fixed_paillier_keypair

        kp = fixed_paillier_keypair(256)
        rng = SystemRandomSource(seed=1001)
        values = [rng.randrange(0, 1 << 32) for _ in range(20)]
        acc = kp.public.encrypt(0, rng)
        for v in values:
            acc = kp.public.add(acc, kp.public.encrypt(v, rng))
        assert kp.decrypt(acc) == sum(values)

    def test_mixed_operations(self):
        from repro.crypto.fixtures import fixed_paillier_keypair

        kp = fixed_paillier_keypair(256)
        rng = SystemRandomSource(seed=1002)
        # 3*(x + 5) - x computed homomorphically = 2x + 15
        x = 1234
        cx = kp.public.encrypt(x, rng)
        expr = kp.public.mul_plain(kp.public.add_plain(cx, 5), 3)
        expr = kp.public.add(
            expr, kp.public.mul_plain(cx, kp.public.n - 1)
        )
        assert kp.decrypt(expr) == 2 * x + 15
