//! Page bytes held by reference.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One page's bytes, held by reference: a shared, immutable buffer and
/// the length of the prefix this handle exposes.
///
/// A stored NAND page is `data ‖ parity ‖ CRC` in one buffer, and a page
/// that decodes clean has its data in the first `page_bytes` of that same
/// buffer. So the media, the NVMC write buffer and the FPGA's DMA hand
/// one buffer along instead of copying the page at every layer; cloning
/// a `PageBuf` is a reference-count increment. Only a decode that has to
/// correct a word, or a read that injects an error, makes a new buffer.
///
/// # Example
///
/// ```
/// use nvdimmc_nand::{PageBuf, PageCodec};
///
/// let codec = PageCodec::new(4096);
/// let stored: PageBuf = codec.encode(vec![7u8; 4096]).unwrap();
/// assert_eq!(stored.len(), codec.stored_bytes());
/// let (data, corrected) = codec.decode(&stored).unwrap();
/// assert_eq!(data, vec![7u8; 4096]);
/// assert_eq!(corrected, 0);
/// ```
#[derive(Clone)]
pub struct PageBuf {
    buf: Arc<Vec<u8>>,
    len: usize,
}

impl PageBuf {
    /// The first `len` bytes (at most all of them), sharing this buffer.
    pub(crate) fn prefix(&self, len: usize) -> PageBuf {
        PageBuf {
            buf: Arc::clone(&self.buf),
            len: len.min(self.len),
        }
    }

    /// Whether both handles view the same bytes of one buffer.
    pub(crate) fn same_bytes(&self, other: &PageBuf) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && self.len == other.len
    }
}

impl From<Vec<u8>> for PageBuf {
    fn from(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        PageBuf {
            buf: Arc::new(bytes),
            len,
        }
    }
}

impl Deref for PageBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for PageBuf {
    fn eq(&self, other: &PageBuf) -> bool {
        **self == **other
    }
}

impl Eq for PageBuf {}

impl PartialEq<Vec<u8>> for PageBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_shares_the_buffer() {
        let whole = PageBuf::from(vec![1, 2, 3, 4]);
        let head = whole.prefix(2);
        assert_eq!(head, vec![1, 2]);
        assert!(Arc::ptr_eq(&whole.buf, &head.buf));
        assert!(!head.same_bytes(&whole), "different lengths");
        assert!(head.same_bytes(&whole.prefix(2)));
        assert_eq!(whole.prefix(9).len(), 4, "a prefix never grows");
        // Equal contents in different buffers compare equal but are not
        // the same bytes.
        let copy = PageBuf::from(vec![1, 2]);
        assert_eq!(copy, head);
        assert!(!copy.same_bytes(&head));
    }
}
