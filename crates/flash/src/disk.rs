//! The file-system calls a [`crate::FileStore`] makes, behind one seam: the
//! real directory in production, a recording one under test.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

/// One directory of files, by name, as the store uses it.
pub(crate) trait Disk: Send + Sync {
    fn list(&self) -> io::Result<Vec<String>>;
    /// Opens `name` to read and write; with `create`, creates it first and
    /// fails if it exists.
    fn open(&self, name: &str, create: bool) -> io::Result<Box<dyn DiskFile>>;
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `name`, writes `bytes` to it and syncs it.
    fn write_synced(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    fn unlink(&self, name: &str) -> io::Result<()>;
    /// Makes the creates, renames and unlinks so far durable.
    fn sync_dir(&self) -> io::Result<()>;
}

/// An open file.
pub(crate) trait DiskFile: Send + Sync {
    /// Reads into `buf` from `off` until it is full or the file ends: a short
    /// count is the end of the file, and any other failure an error.
    fn pread(&self, buf: &mut [u8], off: u64) -> io::Result<usize>;
    fn pwrite(&self, buf: &[u8], off: u64) -> io::Result<()>;
    /// Makes what was written to the file so far durable.
    fn sync_data(&self) -> io::Result<()>;
    fn size(&self) -> io::Result<u64>;
}

/// The real disk: a directory, whose files are opened as `std::fs::File`s.
pub(crate) struct StdDisk(PathBuf);

impl StdDisk {
    /// The directory `dir`, created if it is missing.
    pub(crate) fn open(dir: PathBuf) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Disk for StdDisk {
    fn list(&self) -> io::Result<Vec<String>> {
        fs::read_dir(&self.0)?.map(|e| Ok(e?.file_name().to_string_lossy().into_owned())).collect()
    }

    fn open(&self, name: &str, create: bool) -> io::Result<Box<dyn DiskFile>> {
        let path = self.0.join(name);
        Ok(Box::new(OpenOptions::new().read(true).write(true).create_new(create).open(path)?))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.0.join(name))
    }

    fn write_synced(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut file = File::create(self.0.join(name))?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.0.join(from), self.0.join(to))
    }

    fn unlink(&self, name: &str) -> io::Result<()> {
        fs::remove_file(self.0.join(name))
    }

    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.0)?.sync_all()
    }
}

impl DiskFile for File {
    fn pread(&self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        let mut got = 0;
        while got < buf.len() {
            match self.read_at(&mut buf[got..], off + got as u64) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> io::Result<()> {
        self.write_all_at(buf, off)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}
