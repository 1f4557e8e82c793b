"""Compression substrate: codecs, registry, and self-contained block framing.

Stand-ins for the paper's QuickLZ (zlib levels 1/6) and LZMA codecs plus
the framing Nephele uses for its 128 KB channel buffers.
"""

from .base import Codec, CodecInfo
from .block import (
    DEFAULT_BLOCK_SIZE,
    HEADER_SIZE,
    MAX_BLOCK_LEN,
    BlockData,
    BlockHeader,
    BlockReader,
    BlockWriter,
    EncodedBlock,
    EncodedParts,
    decode_block,
    decode_header,
    decode_payload,
    encode_block,
    encode_block_parts,
    verify_crc,
)
from .bz2_codec import Bz2Codec
from .errors import (
    CodecError,
    CorruptBlockError,
    OversizedBlockError,
    TruncatedStreamError,
    UnknownCodecError,
)
from .inspect import CodecUsage, StreamInfo, scan_block_stream
from .lzma_codec import LzmaCodec
from .null_codec import NullCodec
from .registry import DEFAULT_REGISTRY, CodecRegistry, build_default_registry
from .rle_codec import RleCodec
from .stats import CodecMeasurement, measure_codec
from .zlib_codec import LightZlibCodec, MediumZlibCodec, ZlibCodec

__all__ = [
    "Codec",
    "CodecInfo",
    "CodecError",
    "CorruptBlockError",
    "OversizedBlockError",
    "TruncatedStreamError",
    "UnknownCodecError",
    "NullCodec",
    "ZlibCodec",
    "LightZlibCodec",
    "MediumZlibCodec",
    "LzmaCodec",
    "Bz2Codec",
    "RleCodec",
    "CodecRegistry",
    "build_default_registry",
    "DEFAULT_REGISTRY",
    "BlockHeader",
    "BlockReader",
    "BlockWriter",
    "EncodedBlock",
    "EncodedParts",
    "encode_block",
    "encode_block_parts",
    "decode_block",
    "decode_header",
    "decode_payload",
    "verify_crc",
    "BlockData",
    "DEFAULT_BLOCK_SIZE",
    "HEADER_SIZE",
    "MAX_BLOCK_LEN",
    "CodecMeasurement",
    "measure_codec",
    "scan_block_stream",
    "StreamInfo",
    "CodecUsage",
]
