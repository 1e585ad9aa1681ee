//! Runtime images: the fixed cost of a language runtime.
//!
//! A managed runtime brings more than a heap: shared libraries
//! (`libjvm.so` for HotSpot, the `node` binary for V8), private native
//! allocations (metaspace, code cache, malloc arenas), and startup
//! time. The paper's §4.6 optimization unmaps libraries that are
//! *private to a single frozen instance*; whether libraries are shared
//! at all is an environment property — OpenWhisk containers on one host
//! share them through the page cache, Lambda instances do not (§5.4).

use simos::{FileId, SimDuration, System};

/// The two managed languages the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Language {
    /// Java on the HotSpot serial collector.
    Java,
    /// JavaScript on Node.js / V8.
    JavaScript,
}

impl Language {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Language::Java => "java",
            Language::JavaScript => "javascript",
        }
    }
}

/// Description of a runtime image.
#[derive(Debug, Clone)]
pub struct RuntimeImage {
    /// The language this image hosts.
    pub language: Language,
    /// Shared libraries: `(name, size_bytes)`.
    pub libs: Vec<(String, u64)>,
    /// Private anonymous native memory touched at startup (metaspace,
    /// code cache, malloc arenas).
    pub native_bytes: u64,
    /// Runtime initialization time (JVM boot / node boot), charged on
    /// cold start.
    pub startup: SimDuration,
    /// Whether library files may be shared between instances of this
    /// image through the page cache.
    pub share_libs: bool,
}

impl RuntimeImage {
    /// The OpenWhisk image: libraries shared across same-language
    /// containers on the host.
    pub fn openwhisk(language: Language) -> RuntimeImage {
        match language {
            Language::Java => RuntimeImage {
                language,
                libs: vec![
                    ("libjvm.so".into(), 18 << 20),
                    ("libjava+deps.so".into(), 8 << 20),
                ],
                native_bytes: 30 << 20,
                startup: SimDuration::from_millis(420),
                share_libs: true,
            },
            Language::JavaScript => RuntimeImage {
                language,
                libs: vec![("node".into(), 52 << 20), ("libc+deps.so".into(), 6 << 20)],
                native_bytes: 18 << 20,
                startup: SimDuration::from_millis(180),
                share_libs: true,
            },
        }
    }

    /// The Lambda image (§5.4): same runtimes packed as container
    /// images, but Lambda never shares library pages between instances,
    /// which makes the §4.6 unmap optimization more effective. The
    /// Corretto/levelled images are also somewhat larger.
    pub fn lambda(language: Language) -> RuntimeImage {
        let mut image = RuntimeImage::openwhisk(language);
        image.share_libs = false;
        for (_, size) in &mut image.libs {
            *size += *size / 4;
        }
        image.startup += SimDuration::from_millis(80);
        image
    }

    /// Total library bytes.
    #[cfg(test)]
    pub(crate) fn lib_bytes(&self) -> u64 {
        self.libs.iter().map(|(_, s)| *s).sum()
    }

    /// Registers this image's library files with the system.
    ///
    /// For a sharing image this is done once per host; for a
    /// non-sharing (Lambda) image, call it once *per instance* so that
    /// every instance maps distinct files and nothing is shared.
    pub fn register_files(&self, sys: &mut System) -> SharedLibs {
        let files = self
            .libs
            .iter()
            .map(|(name, size)| sys.register_file(name, *size))
            .collect();
        SharedLibs { files }
    }
}

/// Registered library files of one image on one host.
#[derive(Debug, Clone)]
pub struct SharedLibs {
    /// File ids in registration order (parallel to
    /// [`RuntimeImage::libs`]).
    pub files: Vec<FileId>,
}

snapshot::record!(enum Language { 0 => Java, 1 => JavaScript });

snapshot::record!(SharedLibs { files: Vec<FileId> });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openwhisk_images_share_lambda_ones_do_not() {
        for lang in [Language::Java, Language::JavaScript] {
            assert!(RuntimeImage::openwhisk(lang).share_libs);
            assert!(!RuntimeImage::lambda(lang).share_libs);
        }
    }

    #[test]
    fn lambda_images_are_larger_and_slower_to_boot() {
        for lang in [Language::Java, Language::JavaScript] {
            let ow = RuntimeImage::openwhisk(lang);
            let l = RuntimeImage::lambda(lang);
            assert!(l.lib_bytes() > ow.lib_bytes());
            assert!(l.startup > ow.startup);
        }
    }

    #[test]
    fn register_files_creates_one_file_per_lib() {
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(Language::Java);
        let libs = image.register_files(&mut sys);
        assert_eq!(libs.files.len(), image.libs.len());
        for (file, (name, size)) in libs.files.iter().zip(&image.libs) {
            assert_eq!(sys.files().name(*file), name);
            assert!(sys.files().size(*file) >= *size);
        }
    }

    #[test]
    fn language_wire_tags_are_pinned() {
        for (lang, tag) in [(Language::Java, 0u8), (Language::JavaScript, 1)] {
            assert_eq!(snapshot::encode(&lang), [tag]);
            assert_eq!(snapshot::decode(&[tag]), Ok(lang));
        }
    }
}
