;;; List-structure utilities: the "LISP pointer world" side of the
;;; compiler (generic operations, cons allocation, recursion).

(defun my-length (l)
  (if (null l)
      0
      (1+ (my-length (cdr l)))))

(defun my-append (a b)
  (if (null a)
      b
      (cons (car a) (my-append (cdr a) b))))

(defun my-reverse (l)
  (let ((acc nil))
    (prog ()
      loop
      (if (null l) (return acc))
      (setq acc (cons (car l) acc))
      (setq l (cdr l))
      (go loop))))

(defun count-atoms (tree)
  (if (atom tree)
      1
      (+& (count-atoms (car tree)) (count-atoms (cdr tree)))))
