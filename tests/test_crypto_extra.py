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
    """CTR output is the data XOR one encrypted counter per 16 bytes.

    The reference is the byte-oriented inverse cipher, which shares no code
    with the byte-sliced encryptor: each keystream block must decrypt to its
    counter mod 2^128.
    """

    @given(
        st.sampled_from([16, 24, 32]),
        st.sampled_from([8, 32, 64, 128]),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=1, max_value=70),
        st.integers(min_value=0, max_value=(1 << 128) - 1),
        st.binary(max_size=16 * 70),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_block_reference_across_wrap(
        self, key_size, low_bits, back, blocks, high, data
    ):
        cipher = AES(bytes(range(7, 7 + key_size)))
        # `back` blocks below the carry out of the low `low_bits` bits; at
        # 128 bits that is the wrap of the whole counter
        counter = (high >> low_bits << low_bits) + (1 << low_bits) - back
        nonce = counter.to_bytes(16, "big")
        keystream = ctr_xcrypt(cipher, nonce, bytes(16 * blocks))
        for i in range(blocks):
            expected = ((counter + i) % (1 << 128)).to_bytes(16, "big")
            assert cipher.decrypt_block(keystream[16 * i : 16 * i + 16]) == expected
        data = data[: 16 * blocks]
        expected = bytes(d ^ k for d, k in zip(data, keystream))
        assert ctr_xcrypt(cipher, nonce, data) == expected

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
    fixed bytes catch it.  The two OPE-descent digests (16-bit expansion and
    the hypergeometric split) were taken while an LRU still memoized the
    descent's nodes, so they pin that the plain HMAC derivation returns
    what that cache served.
    """

    #: SHA-256 over the datagrams of :meth:`test_secure_channel_datagrams`,
    #: MAC tags (and so the direction labels they bind) included.
    CHANNEL_DIGEST = "c0e91450f5ebf2f1ea6d661dc2022be24fbabd380e388e89be36c4371e8efd9e"
    #: The same digest over each datagram's IV and body only: the AES-CTR
    #: output, independent of what the MAC tag covers.
    CHANNEL_BODY_DIGEST = "f0d77570a7fe947d355c693d7f1f3bea9996e88da9ec502782e35f059d42ddd1"
    #: SHA-256 over the encoded uploads of :meth:`test_enrolled_uploads`.
    UPLOAD_DIGEST = "c86a2a7d2fbd6d2bbbee283a65605129e01ed10dc14a04941280e0ef4adfb727"
    #: The same recipe at 16-bit OPE expansion, where every attribute value
    #: takes a real OPE descent (:meth:`test_enrolled_uploads_expanded`).
    UPLOAD_EXPANDED_DIGEST = "7990cad9388db4bdd2aca10a7ce6958b5d751ee6daf4e92ae751a05cdd552d90"
    #: SHA-256 over the 2-byte ciphertexts of
    #: :meth:`test_hypergeometric_ope_ciphertexts`.
    HYPERGEOMETRIC_DIGEST = "be60ea6196d2774be52f160fdaff6c86f5ebd289cf2b5a23bd103c08c9cc1457"

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

    @staticmethod
    def _enrolled_uploads(**scheme_options):
        from repro.datasets import INFOCOM06
        from repro.experiments.common import build_population, build_scheme
        from repro.net.messages import UploadMessage

        population = build_population(INFOCOM06, seed=1402)
        profiles = [u.profile for u in population.generate(12)]
        scheme = build_scheme(
            INFOCOM06, schema=population.schema, seed=1402, **scheme_options
        )
        uploads, _ = scheme.enroll_population(
            profiles, backend="serial", seed=1402
        )
        return [
            UploadMessage(payload=uploads[p.user_id]).encode() for p in profiles
        ]

    def test_enrolled_uploads(self):
        assert _digest(self._enrolled_uploads()) == self.UPLOAD_DIGEST

    def test_enrolled_uploads_expanded(self):
        encoded = self._enrolled_uploads(ope_expansion_bits=16)
        assert _digest(encoded) == self.UPLOAD_EXPANDED_DIGEST

    def test_hypergeometric_ope_ciphertexts(self):
        rng = SystemRandomSource(seed=1403)
        params = OpeParams(
            plaintext_bits=10, expansion_bits=4, split="hypergeometric"
        )
        ope = OPE(rng.randbytes(32), params)
        plaintexts = [rng.randrange(0, params.domain_size) for _ in range(64)]
        ciphertexts = [ope.encrypt(m).to_bytes(2, "big") for m in plaintexts]
        assert _digest(ciphertexts) == self.HYPERGEOMETRIC_DIGEST


class TestPinnedMessages:
    """Every other protocol message's wire bytes, pinned to SHA-256 digests.

    Uploads and channel bodies are pinned above; these cover the query,
    result and OPRF layouts, so a codec rewrite that reorders, drops or
    re-prefixes a field fails here even when it still decodes its own
    output.
    """

    #: SHA-256 over the kNN and MAX-distance requests of
    #: :meth:`test_query_requests`.
    QUERY_DIGEST = "d318bcba9d44c91d2a69e48b41fb596308b4e8435903d5647d9172de0410196e"
    #: SHA-256 over the one encoded empty result.
    EMPTY_RESULT_DIGEST = "9ce03e6b6d9f9ce0b387399848cb5e3742fddb1be598c3fef0ec62711529c28d"
    #: SHA-256 over the five-entry result of :meth:`test_query_result`.
    RESULT_DIGEST = "d5c2ad56870fcac3d8b470a6019c3f25a1e7c9520a49dc3f4e2e802078ab8fc5"
    #: SHA-256 over the tampered result of :meth:`test_swapped_auth_result`.
    SWAPPED_RESULT_DIGEST = "7c5e9f95ff9bca9a299e9668b1b9e2282a7f8c62e14fbb1f520d313d79d25d74"
    #: SHA-256 over the four OPRF messages of :meth:`test_oprf_messages`.
    OPRF_DIGEST = "4c2f4b50eb72c49cdd95e1d4cf1799fb61a7a1da060a9c6612d9e5e61b1edbc6"

    @staticmethod
    def _roundtrip(messages):
        from repro.net.messages import decode_message

        encoded = [m.encode() for m in messages]
        assert [decode_message(raw) for raw in encoded] == list(messages)
        return encoded

    def test_query_requests(self):
        from repro.net.messages import QueryRequest

        messages = [
            QueryRequest(query_id=1, timestamp=1_700_000_000, user_id=42),
            QueryRequest(query_id=300, timestamp=0, user_id=1 << 40),
            QueryRequest(
                query_id=2, timestamp=1_700_000_001, user_id=42, max_distance=0
            ),
            QueryRequest(
                query_id=3, timestamp=1_700_000_002, user_id=7, max_distance=70_000
            ),
        ]
        assert _digest(self._roundtrip(messages)) == self.QUERY_DIGEST

    def test_empty_query_result(self):
        from repro.net.messages import QueryResult

        empty = QueryResult(query_id=9, timestamp=1_700_000_000, entries=())
        assert _digest(self._roundtrip([empty])) == self.EMPTY_RESULT_DIGEST

    def test_query_result(self):
        from repro.datasets import INFOCOM06
        from repro.experiments.common import build_population, build_scheme
        from repro.net.messages import QueryResult, ResultEntry

        population = build_population(INFOCOM06, seed=1404)
        profiles = [u.profile for u in population.generate(5)]
        scheme = build_scheme(INFOCOM06, schema=population.schema, seed=1404)
        uploads, _ = scheme.enroll_population(
            profiles, backend="serial", seed=1404
        )
        result = QueryResult(
            query_id=11,
            timestamp=1_700_000_003,
            entries=tuple(
                ResultEntry(user_id=p.user_id, auth=uploads[p.user_id].auth)
                for p in profiles
            ),
        )
        assert _digest(self._roundtrip([result])) == self.RESULT_DIGEST

    def test_swapped_auth_result(self):
        """Entries carrying another user's authenticator.

        The first five rotate the sealed commitments and rebind each to
        its entry's id, as ``MaliciousServer``'s swap builds them, so both
        ids of an entry are equal; the last carries another user's whole
        authenticator, so its two ids differ.
        """
        from repro.core.verification import AuthInfo
        from repro.datasets import INFOCOM06
        from repro.experiments.common import build_population, build_scheme
        from repro.net.messages import QueryResult, ResultEntry

        population = build_population(INFOCOM06, seed=1404)
        profiles = [u.profile for u in population.generate(5)]
        scheme = build_scheme(INFOCOM06, schema=population.schema, seed=1404)
        uploads, _ = scheme.enroll_population(
            profiles, backend="serial", seed=1404
        )
        auths = [uploads[p.user_id].auth for p in profiles]
        donors = auths[1:] + auths[:1]
        entries = [
            ResultEntry(
                user_id=auth.user_id,
                auth=AuthInfo(user_id=auth.user_id, sealed=donor.sealed),
            )
            for auth, donor in zip(auths, donors)
        ]
        entries.append(ResultEntry(user_id=auths[0].user_id, auth=auths[1]))
        result = QueryResult(
            query_id=12, timestamp=1_700_000_004, entries=tuple(entries)
        )
        assert _digest(self._roundtrip([result])) == self.SWAPPED_RESULT_DIGEST

    def test_oprf_messages(self):
        from repro.crypto.fixtures import fixed_rsa_keypair
        from repro.net.messages import (
            OprfKeyInfo,
            OprfKeyInfoRequest,
            OprfRequest,
            OprfResponse,
        )

        public = fixed_rsa_keypair(1024).public
        rng = SystemRandomSource(seed=1405)
        messages = [
            OprfKeyInfoRequest(request_id=1),
            OprfKeyInfo(request_id=1, modulus=public.n, exponent=public.e),
            OprfRequest(request_id=2, blinded=rng.randrange(0, public.n)),
            OprfResponse(request_id=2, evaluated=rng.randrange(0, public.n)),
        ]
        assert _digest(self._roundtrip(messages)) == self.OPRF_DIGEST


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
