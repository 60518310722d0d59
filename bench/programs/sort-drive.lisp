;;; Allocation, GC and closure calls: the prelude's merge sort with a
;;; closure comparator over a list from a linear congruential generator.
;;; Needs the prelude (sort-list, take, drop, merge-lists).  SEED comes
;;; from the benchmark seed; it changes the list, not its length.

(defun lcg-list (n x)
  (prog (acc)
    loop
    (if (zerop n) (return acc))
    (setq x (rem (+ (* x 1103515245) 12345) 2147483648))
    (setq acc (cons (rem x 100000) acc))
    (setq n (- n 1))
    (go loop)))

(defun checksum (lst)
  ;; Position-weighted sum, so a wrong order changes the answer.
  (prog (i acc)
    (setq i 1)
    (setq acc 0)
    loop
    (if (null lst) (return acc))
    (setq acc (rem (+ acc (* i (car lst))) 1000000007))
    (setq i (+ i 1))
    (setq lst (cdr lst))
    (go loop)))

(defun sort-drive (rounds n seed)
  (let ((acc 0) (m 1000))
    (dotimes (r rounds acc)
      (setq acc (+ acc (checksum
                        (sort-list (lambda (a b) (< (rem a m) (rem b m)))
                                   (lcg-list n (+ seed r)))))))))
