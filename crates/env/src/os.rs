//! Operating-system releases and architectures.
//!
//! The DESY sp-system ran Scientific Linux (SL) guests. What matters to the
//! validation framework is not the distribution branding but the *ABI
//! generation*: which system interfaces and library versions a release
//! exposes, and when it stops being maintained (the security concerns of
//! §2 motivate migrating off end-of-life systems).

use crate::version::Version;

/// CPU architecture / word size of an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// 32-bit x86 (`SL5/32bit` images in the paper).
    I686,
    /// 64-bit x86-64.
    X86_64,
}

impl Arch {
    /// Pointer width in bits.
    pub fn word_bits(self) -> u8 {
        match self {
            Arch::I686 => 32,
            Arch::X86_64 => 64,
        }
    }

    /// Short name used in configuration labels (`32bit`, `64bit`).
    pub fn label(self) -> &'static str {
        match self {
            Arch::I686 => "32bit",
            Arch::X86_64 => "64bit",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A Scientific Linux release generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OsRelease {
    /// Major generation (4, 5, 6, 7).
    pub generation: u8,
    /// Representative point release.
    pub version: Version,
    /// ABI level — monotonically increasing with generation; external
    /// software and compilers declare minimum ABI levels.
    pub abi_level: u8,
    /// Release year (approximate, for the timeline).
    pub released: u16,
    /// End-of-life year; migrations should complete before this.
    pub eol: u16,
}

impl OsRelease {
    /// Scientific Linux 4 (2005–2012). Predates the paper's configurations;
    /// present so the preparation phase can model "migrate the OS to the
    /// most recent release".
    pub const SL4: OsRelease = OsRelease {
        generation: 4,
        version: Version::new(4, 8, 0),
        abi_level: 4,
        released: 2005,
        eol: 2012,
    };

    /// Scientific Linux 5 (2007–2019), the HERA-era workhorse.
    pub const SL5: OsRelease = OsRelease {
        generation: 5,
        version: Version::new(5, 9, 0),
        abi_level: 5,
        released: 2007,
        eol: 2019,
    };

    /// Scientific Linux 6 (2011–2020), the migration target in the paper.
    pub const SL6: OsRelease = OsRelease {
        generation: 6,
        version: Version::new(6, 4, 0),
        abi_level: 6,
        released: 2011,
        eol: 2020,
    };

    /// Scientific Linux 7 (2014–2024): "the next challenges include the
    /// testing of the SL7 environment" (§3.3).
    pub const SL7: OsRelease = OsRelease {
        generation: 7,
        version: Version::new(7, 0, 0),
        abi_level: 7,
        released: 2014,
        eol: 2024,
    };

    /// All modelled releases, oldest first.
    pub fn all() -> [OsRelease; 4] {
        [Self::SL4, Self::SL5, Self::SL6, Self::SL7]
    }

    /// Short label (`SL5`, `SL6`, …) used in configuration names.
    pub fn label(&self) -> String {
        format!("SL{}", self.generation)
    }

    /// Which architectures this generation supports as sp-system guests.
    /// SL6 dropped the 32-bit images in the DESY deployment.
    pub fn supported_archs(&self) -> &'static [Arch] {
        if self.generation <= 5 {
            &[Arch::I686, Arch::X86_64]
        } else {
            &[Arch::X86_64]
        }
    }
}

impl std::fmt::Display for OsRelease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_sizes() {
        assert_eq!(Arch::I686.word_bits(), 32);
        assert_eq!(Arch::X86_64.word_bits(), 64);
    }

    #[test]
    fn abi_levels_increase_with_generation() {
        let all = OsRelease::all();
        for pair in all.windows(2) {
            assert!(pair[0].abi_level < pair[1].abi_level);
            assert!(pair[0].released <= pair[1].released);
        }
    }

    #[test]
    fn sl6_is_64bit_only() {
        assert_eq!(OsRelease::SL6.supported_archs(), &[Arch::X86_64]);
        assert_eq!(
            OsRelease::SL5.supported_archs(),
            &[Arch::I686, Arch::X86_64]
        );
    }

    #[test]
    fn labels() {
        assert_eq!(OsRelease::SL5.label(), "SL5");
        assert_eq!(OsRelease::SL7.to_string(), "SL7");
        assert_eq!(format!("{}/{}", OsRelease::SL5, Arch::I686), "SL5/32bit");
    }
}
