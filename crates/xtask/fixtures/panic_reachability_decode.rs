//! Seeded violation: a helper below the container decode root indexes
//! its input bare, so a truncated container panics instead of
//! returning a typed `SnapError`. The self-test scans this as
//! `crates/snapshot/src/frame.rs`, where `Container::open` is a
//! declared root. The checked `.get()` and the array type must not
//! fire.

impl Container {
    fn open(bytes: &[u8]) -> Result<Container, SnapError> {
        let len = frame_len(bytes)?;
        Ok(Container { len })
    }
}

fn frame_len(bytes: &[u8]) -> Result<u64, SnapError> {
    let _kind = *bytes.get(0).ok_or(SnapError::Truncated)?;
    let raw: [u8; 8] = bytes[1..9].try_into().map_err(|_| SnapError::Corrupt)?;
    Ok(u64::from_le_bytes(raw))
}
