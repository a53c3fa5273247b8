//! Encrypted file storage: the collection `C` as the cloud holds it.

use rsse_crypto::ctr::Sealer;
use rsse_crypto::{CryptoError, SecretKey, SemanticCipher};
use rsse_ir::{Document, FileId};
use std::collections::HashMap;

/// One encrypted file as stored by (and fetched from) the cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedFile {
    id: FileId,
    ciphertext: Vec<u8>,
}

impl EncryptedFile {
    /// Wraps an identifier/ciphertext pair.
    pub fn new(id: FileId, ciphertext: Vec<u8>) -> Self {
        EncryptedFile { id, ciphertext }
    }

    /// The file's identifier (`id(F)` is public — it must be, for retrieval).
    pub fn id(&self) -> FileId {
        self.id
    }

    /// The encrypted body.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }

    /// Size on the wire/disk in bytes.
    pub fn byte_len(&self) -> usize {
        self.ciphertext.len()
    }
}

/// Owner-side file encryption (AES-CTR under a dedicated file key, its
/// round keys expanded once for every file).
#[derive(Debug)]
pub struct FileCrypter {
    cipher: SemanticCipher,
}

impl FileCrypter {
    /// Derives the file-encryption key from the owner's master seed.
    pub fn new(master_seed: &[u8]) -> Self {
        FileCrypter {
            cipher: SemanticCipher::new(&SecretKey::derive(master_seed, "cloud/files")),
        }
    }

    /// Encrypts one document (nonce bound to the file id).
    pub fn encrypt(&self, doc: &Document) -> EncryptedFile {
        let mut sealer = Sealer::new(self.cipher.clone(), doc.id().as_u64());
        EncryptedFile::new(doc.id(), sealer.seal(doc.text().as_bytes()))
    }

    /// Encrypts a whole collection.
    pub fn encrypt_collection(&self, docs: &[Document]) -> Vec<EncryptedFile> {
        docs.iter().map(|d| self.encrypt(d)).collect()
    }

    /// Decrypts a fetched file back to a [`Document`].
    ///
    /// # Errors
    ///
    /// [`CryptoError`] on truncated ciphertexts or non-UTF-8 plaintext
    /// (wrong key).
    pub fn decrypt(&self, file: &EncryptedFile) -> Result<Document, CryptoError> {
        let plain = self.cipher.decrypt(file.ciphertext())?;
        let text = String::from_utf8(plain).map_err(|_| CryptoError::IntegrityCheckFailed)?;
        Ok(Document::new(file.id(), text))
    }
}

/// The server-side store of encrypted files.
#[derive(Debug, Clone, Default)]
pub struct FileStore {
    files: HashMap<FileId, EncryptedFile>,
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests files (replacing same-id files).
    pub fn ingest(&mut self, files: Vec<EncryptedFile>) {
        for f in files {
            self.files.insert(f.id(), f);
        }
    }

    /// Fetches one file by id.
    pub fn fetch(&self, id: FileId) -> Option<&EncryptedFile> {
        self.files.get(&id)
    }

    /// Fetches many files, preserving the requested order and skipping
    /// unknown ids.
    pub fn fetch_many(&self, ids: &[FileId]) -> Vec<EncryptedFile> {
        ids.iter()
            .filter_map(|id| self.files.get(id).cloned())
            .collect()
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(EncryptedFile::byte_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let c = FileCrypter::new(b"seed");
        let doc = Document::new(FileId::new(5), "the secret memo");
        let enc = c.encrypt(&doc);
        assert_ne!(enc.ciphertext(), doc.text().as_bytes());
        assert_eq!(c.decrypt(&enc).unwrap(), doc);
    }

    #[test]
    fn wrong_key_fails_closed() {
        let c1 = FileCrypter::new(b"seed-a");
        let c2 = FileCrypter::new(b"seed-b");
        let enc = c1.encrypt(&Document::new(FileId::new(1), "text"));
        // Wrong key yields garbage; practically always invalid UTF-8 for
        // real text. Either error or garbage-that-differs is acceptable;
        // never the plaintext.
        if let Ok(d) = c2.decrypt(&enc) {
            assert_ne!(d.text(), "text")
        }
    }

    #[test]
    fn store_fetch_semantics() {
        let c = FileCrypter::new(b"seed");
        let docs: Vec<Document> = (1..=5)
            .map(|i| Document::new(FileId::new(i), format!("doc {i}")))
            .collect();
        let mut store = FileStore::new();
        store.ingest(c.encrypt_collection(&docs));
        assert_eq!(store.len(), 5);
        assert!(store.fetch(FileId::new(3)).is_some());
        assert!(store.fetch(FileId::new(99)).is_none());
        let many = store.fetch_many(&[FileId::new(5), FileId::new(99), FileId::new(1)]);
        assert_eq!(many.len(), 2);
        assert_eq!(many[0].id(), FileId::new(5));
        assert_eq!(many[1].id(), FileId::new(1));
        assert!(store.total_bytes() > 0);
    }

    #[test]
    fn same_plaintext_different_ids_different_ciphertexts() {
        let c = FileCrypter::new(b"seed");
        let a = c.encrypt(&Document::new(FileId::new(1), "identical"));
        let b = c.encrypt(&Document::new(FileId::new(2), "identical"));
        assert_ne!(a.ciphertext(), b.ciphertext());
    }
}
