"""Wire messages for the interactive OPRF key-generation round.

Paper Section III: "An OPRF is an interactive protocol, and a pseudo-random
number r <- F(sk, m) is generated on the user side after a round of secure
communication with the random number generator."  These messages carry that
round: the client sends the blinded value, the key service responds with its
raw-RSA evaluation.  Both directions ride the same
:class:`~repro.net.channel.SecureChannel` as the rest of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import messages as base
from repro.utils.serial import FieldReader, FieldWriter

__all__ = [
    "OprfRequest",
    "OprfResponse",
    "OprfKeyInfoRequest",
    "OprfKeyInfo",
]

_TAG_OPRF_REQUEST = 16
_TAG_OPRF_RESPONSE = 17
_TAG_OPRF_KEYINFO_REQUEST = 18
_TAG_OPRF_KEYINFO = 19
# tags 20/21 carried a retired batched round; decode_message refuses them


@dataclass(frozen=True)
class OprfRequest(base.Message):
    """Client -> key service: a blinded input ``x = h(m) * s^e mod N``."""

    request_id: int
    blinded: int

    TAG = _TAG_OPRF_REQUEST

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        w.write_int(self.blinded)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfRequest":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        blinded = reader.read_int()
        reader.expect_end()
        return cls(request_id=request_id, blinded=blinded)


@dataclass(frozen=True)
class OprfResponse(base.Message):
    """Key service -> client: ``y = x^d mod N``."""

    request_id: int
    evaluated: int

    TAG = _TAG_OPRF_RESPONSE

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        w.write_int(self.evaluated)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfResponse":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        evaluated = reader.read_int()
        reader.expect_end()
        return cls(request_id=request_id, evaluated=evaluated)


@dataclass(frozen=True)
class OprfKeyInfoRequest(base.Message):
    """Client -> key service: fetch the public key parameters."""

    request_id: int

    TAG = _TAG_OPRF_KEYINFO_REQUEST

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfKeyInfoRequest":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        reader.expect_end()
        return cls(request_id=request_id)


@dataclass(frozen=True)
class OprfKeyInfo(base.Message):
    """Key service -> client: the RSA public parameters ``(N, e)``."""

    request_id: int
    modulus: int
    exponent: int

    TAG = _TAG_OPRF_KEYINFO

    def encode(self) -> bytes:
        """Serialize to tagged, length-prefixed wire bytes."""
        w = FieldWriter()
        w.write_int(self.TAG)
        w.write_int(self.request_id)
        w.write_int(self.modulus)
        w.write_int(self.exponent)
        return w.getvalue()

    @classmethod
    def decode_fields(cls, reader: FieldReader) -> "OprfKeyInfo":
        """Decode the message body from a field reader."""
        request_id = reader.read_int()
        modulus = reader.read_int()
        exponent = reader.read_int()
        reader.expect_end()
        return cls(
            request_id=request_id, modulus=modulus, exponent=exponent
        )


# register with the shared decoder
base._DECODERS[_TAG_OPRF_REQUEST] = OprfRequest.decode_fields
base._DECODERS[_TAG_OPRF_RESPONSE] = OprfResponse.decode_fields
base._DECODERS[_TAG_OPRF_KEYINFO_REQUEST] = OprfKeyInfoRequest.decode_fields
base._DECODERS[_TAG_OPRF_KEYINFO] = OprfKeyInfo.decode_fields
