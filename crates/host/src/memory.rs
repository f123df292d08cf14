//! The byte-addressable backing-store abstraction.

/// A flat physical byte-addressable memory.
///
/// Both the CPU cache and the NVDIMM-C data paths move real bytes through
/// this trait so data-integrity properties are testable end-to-end.
pub trait Memory {
    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on out-of-range accesses.
    fn read(&mut self, addr: u64, buf: &mut [u8]);

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on out-of-range accesses.
    fn write(&mut self, addr: u64, data: &[u8]);

    /// Capacity in bytes.
    fn capacity(&self) -> u64;
}

impl<M: Memory + ?Sized> Memory for &mut M {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        (**self).read(addr, buf);
    }
    fn write(&mut self, addr: u64, data: &[u8]) {
        (**self).write(addr, data);
    }
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
}

/// Dense in-RAM memory for small test footprints.
#[derive(Debug, Clone)]
pub struct VecMemory {
    bytes: Vec<u8>,
}

impl VecMemory {
    /// Allocates `capacity` zeroed bytes.
    pub fn new(capacity: usize) -> Self {
        VecMemory {
            bytes: vec![0; capacity],
        }
    }
}

impl Memory for VecMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self.bytes[a..a + buf.len()]);
    }
    fn write(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }
    fn capacity(&self) -> u64 {
        self.bytes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_memory_roundtrip() {
        let mut m = VecMemory::new(1024);
        m.write(10, &[1, 2, 3]);
        let mut buf = [0u8; 3];
        m.read(10, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(m.capacity(), 1024);
    }

    #[test]
    fn mut_ref_impl_forwards() {
        fn takes_memory(m: &mut impl Memory) -> u64 {
            m.capacity()
        }
        let mut m = VecMemory::new(64);
        assert_eq!(takes_memory(&mut &mut m), 64);
    }
}
