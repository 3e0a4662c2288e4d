use bytes::Bytes;

use crate::{Reader, Result, WireError, Writer};

/// Maximum collection length accepted while decoding, as a corruption guard.
const MAX_SEQ_LEN: u64 = 1 << 28;

/// A value that can be serialized to the wire format.
pub trait Encode {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);
}

/// A value that can be deserialized from the wire format.
pub trait Decode: Sized {
    /// Decodes a value from `r`, consuming exactly its encoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// Encodes `value` into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    // Most messages are a tag and a few integers: one allocation covers
    // them, where growing from empty takes four.
    let mut w = Writer::with_capacity(64);
    value.encode(&mut w);
    w.into_vec()
}

/// Decodes a value from `buf`, requiring the whole buffer to be consumed.
pub fn decode_from_slice<T: Decode>(buf: &[u8]) -> Result<T> {
    decode_all(buf, T::decode)
}

/// Runs `decode` over `buf`, requiring the whole buffer to be consumed.
/// [`decode_from_slice`] for a value that borrows from `buf` (the closure
/// gets the reader's `'a`, so it can return `get_bytes` slices as they are).
pub fn decode_all<'a, T>(
    buf: &'a [u8],
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> Result<T> {
    let mut r = Reader::new(buf);
    let value = decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::LengthOutOfRange {
            declared: buf.len() as u64,
            max: r.position() as u64,
        });
    }
    Ok(value)
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

macro_rules! int_impl {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                r.$get()
            }
        }
    };
}

int_impl!(u8, put_u8, get_u8);
int_impl!(u16, put_u16, get_u16);
int_impl!(u32, put_u32, get_u32);
int_impl!(u64, put_u64, get_u64);
int_impl!(i64, put_i64, get_i64);
int_impl!(bool, put_bool, get_bool);

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(*self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_varint()? as usize)
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.get_str()?.to_owned())
    }
}

impl Encode for [u8] {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Encode for Bytes {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Bytes::copy_from_slice(r.get_bytes()?))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_seq(r, T::decode)
    }
}

/// Decodes a length-prefixed sequence (what `Vec<T>` encodes to) with
/// `item` decoding each element — [`Decode`] for `Vec<T>` when the elements
/// borrow from the buffer (the closure gets the reader's `'a`).
pub fn decode_seq<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let len = r.get_len(MAX_SEQ_LEN)?;
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        out.push(item(r)?);
    }
    Ok(out)
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag { what: "Option", tag: tag as u64 }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes cannot encode a u64.
        let buf = [0xFFu8; 11];
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncated_inputs_error() {
        let mut w = Writer::new();
        w.put_u64(42);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf[..7]);
        assert!(matches!(r.get_u64(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn bytes_length_cannot_exceed_input() {
        // Declared length 100 but only 2 bytes of payload follow.
        let mut w = Writer::new();
        w.put_varint(100);
        w.put_raw(&[1, 2]);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.get_bytes(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn composite_roundtrip() {
        let value: (u64, Option<String>, Vec<u32>) = (7, Some("hello".to_owned()), vec![1, 2, 3]);
        let bytes = encode_to_vec(&value);
        let back: (u64, Option<String>, Vec<u32>) = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_to_vec(&42u64);
        bytes.push(0);
        assert!(decode_from_slice::<u64>(&bytes).is_err());
    }

    #[test]
    fn decode_all_lends_slices_of_the_input_and_rejects_trailing_bytes() {
        let mut w = Writer::new();
        w.put_u8(9);
        w.put_zeros(3);
        w.put_bytes(b"payload");
        let mut buf = w.into_vec();
        assert_eq!(&buf[..5], &[9u8, 0, 0, 0, 7][..]);
        let (tag, skipped, payload) =
            decode_all(&buf, |r| Ok((r.get_u8()?, r.get_raw(3)?.len(), r.get_bytes()?))).unwrap();
        assert_eq!((tag, skipped, payload), (9, 3, &b"payload"[..]));
        assert_eq!(payload.as_ptr(), buf[5..].as_ptr(), "a view, not a copy");
        buf.push(0);
        // The same error `decode_from_slice` gives for the same excess.
        let owned = decode_from_slice::<(u32, Vec<u8>)>(&buf).unwrap_err();
        assert_eq!(decode_all(&buf, |r| Ok((r.get_raw(4)?, r.get_bytes()?))).unwrap_err(), owned);
    }

    #[test]
    fn invalid_option_tag_rejected() {
        let buf = [7u8];
        assert!(matches!(
            decode_from_slice::<Option<u8>>(&buf),
            Err(WireError::InvalidTag { what: "Option", tag: 7 })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let buf = w.into_vec();
        assert_eq!(decode_from_slice::<String>(&buf), Err(WireError::InvalidUtf8));
    }
}
